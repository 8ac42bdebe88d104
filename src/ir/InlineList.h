//===- InlineList.h - Fixed-capacity inline lists ----------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A list with a small compile-time capacity stored inline. Every node
/// carries its operands and result sorts in one, since no opcode has
/// more than three operands or two results; graphs are built by the
/// hundred thousand when a rule library loads, so keeping both off the
/// heap matters.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_IR_INLINELIST_H
#define SELGEN_IR_INLINELIST_H

#include <array>
#include <cassert>
#include <initializer_list>
#include <iterator>

namespace selgen {

template <typename T, unsigned Capacity> class InlineList {
public:
  InlineList() = default;
  InlineList(std::initializer_list<T> List)
      : InlineList(List.begin(), List.end()) {}
  template <typename Iterator> InlineList(Iterator Begin, Iterator End) {
    for (; Begin != End; ++Begin)
      push_back(*Begin);
  }

  unsigned size() const { return Size; }
  bool empty() const { return Size == 0; }

  const T &operator[](unsigned I) const {
    assert(I < Size && "index out of range");
    return Items[I];
  }
  T &operator[](unsigned I) {
    assert(I < Size && "index out of range");
    return Items[I];
  }
  const T *begin() const { return Items.data(); }
  const T *end() const { return Items.data() + Size; }
  std::reverse_iterator<const T *> rbegin() const {
    return std::reverse_iterator<const T *>(end());
  }
  std::reverse_iterator<const T *> rend() const {
    return std::reverse_iterator<const T *>(begin());
  }

  void push_back(const T &Item) {
    assert(Size < Capacity && "inline list is full");
    Items[Size++] = Item;
  }

private:
  std::array<T, Capacity> Items{};
  unsigned Size = 0;
};

} // namespace selgen

#endif // SELGEN_IR_INLINELIST_H
