//===- AtomicFile.cpp - Crash-safe file publication ---------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SELGEN_CRC32_PCLMUL 1
#include <immintrin.h>
#endif

using namespace selgen;

// The CRC-32 here (IEEE 802.3 reflected, polynomial 0xEDB88320) guards
// every frame of the worker/serve wire protocol and the header+payload
// of mmap'ed binary automaton images, where it dominates the whole
// load path — so it gets a real fast path instead of the textbook
// byte-at-a-time loop. Three tiers, all producing identical results
// (asserted against each other and reference vectors in test_support):
//
//   1. PCLMULQDQ carry-less-multiply folding (runtime-detected on
//      x86-64), the standard 4x128-bit reduction from Intel's CRC
//      whitepaper — tens of GB/s.
//   2. Slice-by-8: eight parallel table lookups per 8-byte word,
//      breaking the 1-byte-per-lookup dependency chain.
//   3. The byte-at-a-time table loop for tails and as the portable
//      reference.
namespace {

std::array<std::array<uint32_t, 256>, 8> makeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> Tables{};
  for (uint32_t N = 0; N < 256; ++N) {
    uint32_t C = N;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
    Tables[0][N] = C;
  }
  for (uint32_t N = 0; N < 256; ++N)
    for (size_t Slice = 1; Slice < 8; ++Slice)
      Tables[Slice][N] = Tables[0][Tables[Slice - 1][N] & 0xffu] ^
                         (Tables[Slice - 1][N] >> 8);
  return Tables;
}

const std::array<std::array<uint32_t, 256>, 8> &crcTables() {
  static const std::array<std::array<uint32_t, 256>, 8> Tables =
      makeCrcTables();
  return Tables;
}

/// Byte-at-a-time over [Bytes, Bytes+Size), on the conditioned
/// (pre-inverted) state \p C.
uint32_t crcBytewise(uint32_t C, const unsigned char *Bytes, size_t Size) {
  const std::array<uint32_t, 256> &Table = crcTables()[0];
  for (size_t I = 0; I < Size; ++I)
    C = Table[(C ^ Bytes[I]) & 0xffu] ^ (C >> 8);
  return C;
}

/// Slice-by-8 over whole 8-byte words (little-endian load order
/// matches the reflected polynomial; x86-64 only ever takes this or
/// the PCLMUL path, and other hosts fall back to crcBytewise).
uint32_t crcSlice8(uint32_t C, const unsigned char *Bytes, size_t Size) {
  const std::array<std::array<uint32_t, 256>, 8> &T = crcTables();
  while (Size >= 8) {
    uint64_t Word;
    std::memcpy(&Word, Bytes, 8);
    Word ^= C;
    C = T[7][Word & 0xffu] ^ T[6][(Word >> 8) & 0xffu] ^
        T[5][(Word >> 16) & 0xffu] ^ T[4][(Word >> 24) & 0xffu] ^
        T[3][(Word >> 32) & 0xffu] ^ T[2][(Word >> 40) & 0xffu] ^
        T[1][(Word >> 48) & 0xffu] ^ T[0][Word >> 56];
    Bytes += 8;
    Size -= 8;
  }
  return crcBytewise(C, Bytes, Size);
}

#ifdef SELGEN_CRC32_PCLMUL

/// PCLMULQDQ folding on the conditioned state, requiring Size >= 64
/// and Size % 16 == 0 (the caller peels the tail). Folding constants
/// are x^k mod P precomputed for the reflected polynomial, per the
/// Intel whitepaper "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction".
__attribute__((target("pclmul,sse4.1"))) uint32_t
crcClmul(uint32_t C, const unsigned char *Buf, size_t Size) {
  alignas(16) static const uint64_t K1K2[2] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const uint64_t K3K4[2] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const uint64_t K5K0[2] = {0x0163cd6124, 0x0000000000};
  alignas(16) static const uint64_t Poly[2] = {0x01db710641, 0x01f7011641};

  __m128i X1 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Buf));
  __m128i X2 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Buf + 16));
  __m128i X3 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Buf + 32));
  __m128i X4 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Buf + 48));
  X1 = _mm_xor_si128(X1, _mm_cvtsi32_si128(static_cast<int>(C)));
  __m128i K = _mm_load_si128(reinterpret_cast<const __m128i *>(K1K2));
  Buf += 64;
  Size -= 64;

  // Fold four 128-bit lanes forward by 512 bits per iteration.
  while (Size >= 64) {
    __m128i T1 = _mm_clmulepi64_si128(X1, K, 0x00);
    __m128i T2 = _mm_clmulepi64_si128(X2, K, 0x00);
    __m128i T3 = _mm_clmulepi64_si128(X3, K, 0x00);
    __m128i T4 = _mm_clmulepi64_si128(X4, K, 0x00);
    X1 = _mm_clmulepi64_si128(X1, K, 0x11);
    X2 = _mm_clmulepi64_si128(X2, K, 0x11);
    X3 = _mm_clmulepi64_si128(X3, K, 0x11);
    X4 = _mm_clmulepi64_si128(X4, K, 0x11);
    X1 = _mm_xor_si128(
        _mm_xor_si128(X1, T1),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Buf)));
    X2 = _mm_xor_si128(
        _mm_xor_si128(X2, T2),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Buf + 16)));
    X3 = _mm_xor_si128(
        _mm_xor_si128(X3, T3),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Buf + 32)));
    X4 = _mm_xor_si128(
        _mm_xor_si128(X4, T4),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Buf + 48)));
    Buf += 64;
    Size -= 64;
  }

  // Reduce the four lanes to one.
  K = _mm_load_si128(reinterpret_cast<const __m128i *>(K3K4));
  __m128i T = _mm_clmulepi64_si128(X1, K, 0x00);
  X1 = _mm_clmulepi64_si128(X1, K, 0x11);
  X1 = _mm_xor_si128(_mm_xor_si128(X1, T), X2);
  T = _mm_clmulepi64_si128(X1, K, 0x00);
  X1 = _mm_clmulepi64_si128(X1, K, 0x11);
  X1 = _mm_xor_si128(_mm_xor_si128(X1, T), X3);
  T = _mm_clmulepi64_si128(X1, K, 0x00);
  X1 = _mm_clmulepi64_si128(X1, K, 0x11);
  X1 = _mm_xor_si128(_mm_xor_si128(X1, T), X4);

  // Fold remaining whole 16-byte blocks.
  while (Size >= 16) {
    T = _mm_clmulepi64_si128(X1, K, 0x00);
    X1 = _mm_clmulepi64_si128(X1, K, 0x11);
    X1 = _mm_xor_si128(_mm_xor_si128(X1, T),
                       _mm_loadu_si128(
                           reinterpret_cast<const __m128i *>(Buf)));
    Buf += 16;
    Size -= 16;
  }

  // 128 -> 64 bits, then Barrett reduction to the 32-bit remainder.
  const __m128i Mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  T = _mm_clmulepi64_si128(X1, K, 0x10);
  X1 = _mm_srli_si128(X1, 8);
  X1 = _mm_xor_si128(X1, T);
  K = _mm_loadl_epi64(reinterpret_cast<const __m128i *>(K5K0));
  T = _mm_srli_si128(X1, 4);
  X1 = _mm_and_si128(X1, Mask32);
  X1 = _mm_clmulepi64_si128(X1, K, 0x00);
  X1 = _mm_xor_si128(X1, T);
  K = _mm_load_si128(reinterpret_cast<const __m128i *>(Poly));
  T = _mm_and_si128(X1, Mask32);
  T = _mm_clmulepi64_si128(T, K, 0x10);
  T = _mm_and_si128(T, Mask32);
  T = _mm_clmulepi64_si128(T, K, 0x00);
  X1 = _mm_xor_si128(X1, T);
  return static_cast<uint32_t>(_mm_extract_epi32(X1, 1));
}

bool haveClmul() {
  static const bool Have =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return Have;
}

#endif // SELGEN_CRC32_PCLMUL

} // namespace

uint32_t selgen::crc32(const void *Data, size_t Size) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint32_t C = 0xffffffffu;
#ifdef SELGEN_CRC32_PCLMUL
  if (Size >= 64 && haveClmul()) {
    size_t Folded = Size & ~size_t(15);
    C = crcClmul(C, Bytes, Folded);
    Bytes += Folded;
    Size -= Folded;
  }
#endif
  C = crcSlice8(C, Bytes, Size);
  return C ^ 0xffffffffu;
}

uint32_t selgen::crc32(const std::string &Text) {
  return crc32(Text.data(), Text.size());
}

std::string selgen::crc32Hex(const std::string &Text) {
  char Buffer[12];
  std::snprintf(Buffer, sizeof(Buffer), "%08x", crc32(Text));
  return Buffer;
}

bool selgen::writeFileAtomic(const std::string &Path,
                             const std::string &Contents, bool Sync) {
  // Unique temp name in the target directory (rename must not cross a
  // filesystem boundary).
  static std::atomic<uint64_t> Counter{0};
  std::string TempPath = Path + ".tmp." + std::to_string(::getpid()) + "." +
                         std::to_string(Counter.fetch_add(1));

  int Fd = ::open(TempPath.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (Fd < 0)
    return false;
  auto fail = [&] {
    ::close(Fd);
    std::error_code EC;
    std::filesystem::remove(TempPath, EC);
    return false;
  };

  size_t Written = 0;
  while (Written < Contents.size()) {
    ssize_t N = ::write(Fd, Contents.data() + Written,
                        Contents.size() - Written);
    if (N < 0)
      return fail();
    Written += static_cast<size_t>(N);
  }
  // The fsync-before-rename is what makes a power cut or SIGKILL
  // unable to publish a name pointing at unwritten blocks.
  if (Sync && ::fsync(Fd) != 0)
    return fail();
  if (::close(Fd) != 0) {
    std::error_code EC;
    std::filesystem::remove(TempPath, EC);
    return false;
  }

  std::error_code EC;
  std::filesystem::rename(TempPath, Path, EC);
  if (EC) {
    std::filesystem::remove(TempPath, EC);
    return false;
  }

  if (Sync) {
    // Persist the directory entry too; advisory (failure does not
    // un-publish the rename).
    std::string Dir = std::filesystem::path(Path).parent_path().string();
    if (Dir.empty())
      Dir = ".";
    int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (DirFd >= 0) {
      ::fsync(DirFd);
      ::close(DirFd);
    }
  }
  return true;
}

std::optional<std::string> selgen::readFileToString(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return std::nullopt;
  // A regular file is read straight into a string of its size; anything
  // else (a pipe, a character device), and whatever a file gained since
  // fstat, streams through a buffer.
  struct stat Status;
  std::string Text;
  if (::fstat(Fd, &Status) == 0 && S_ISREG(Status.st_mode))
    Text.resize(static_cast<size_t>(Status.st_size));
  size_t Filled = 0;
  std::array<char, 4096> Buffer;
  while (true) {
    bool Presized = Filled < Text.size();
    char *Into = Presized ? Text.data() + Filled : Buffer.data();
    size_t Room = Presized ? Text.size() - Filled : Buffer.size();
    ssize_t Got = ::read(Fd, Into, Room);
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got < 0) {
      ::close(Fd);
      return std::nullopt;
    }
    if (Got == 0)
      break;
    if (!Presized)
      Text.append(Buffer.data(), static_cast<size_t>(Got));
    Filled += static_cast<size_t>(Got);
  }
  ::close(Fd);
  Text.resize(Filled); // The file may have shrunk since fstat.
  return Text;
}

bool selgen::quarantineFile(const std::string &Path) {
  std::error_code EC;
  std::filesystem::rename(Path, Path + ".bad", EC);
  return !EC;
}
