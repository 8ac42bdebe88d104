//===- SpawnedServer.h - The real selgen-served on pipes --------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spawns the real selgen-served binary with stdin/stdout pipes, so a
/// test is the parent side of the deployment topology: it writes
/// request frames to ToChild and reads replies from FromChild.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_TESTS_SPAWNEDSERVER_H
#define SELGEN_TESTS_SPAWNEDSERVER_H

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace selgen {

struct SpawnedServer {
  pid_t Pid = -1;
  int ToChild = -1;   ///< Write requests here.
  int FromChild = -1; ///< Read replies here.

  SpawnedServer() = default;
  SpawnedServer(const SpawnedServer &) = delete;
  SpawnedServer &operator=(const SpawnedServer &) = delete;

  /// Starts Args[0] with the remaining arguments.
  void start(const std::vector<std::string> &Args) {
    int In[2], Out[2];
    ASSERT_EQ(pipe(In), 0);
    ASSERT_EQ(pipe(Out), 0);
    Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      dup2(In[0], STDIN_FILENO);
      dup2(Out[1], STDOUT_FILENO);
      close(In[0]);
      close(In[1]);
      close(Out[0]);
      close(Out[1]);
      std::vector<char *> Argv;
      for (const std::string &A : Args)
        Argv.push_back(const_cast<char *>(A.c_str()));
      Argv.push_back(nullptr);
      execv(Argv[0], Argv.data());
      _exit(127);
    }
    close(In[0]);
    close(Out[1]);
    ToChild = In[1];
    FromChild = Out[0];
  }

  /// Reaps the child; returns its raw wait status.
  int wait() {
    int Status = 0;
    EXPECT_EQ(waitpid(Pid, &Status, 0), Pid);
    return Status;
  }

  ~SpawnedServer() {
    if (ToChild >= 0)
      close(ToChild);
    if (FromChild >= 0)
      close(FromChild);
  }
};

} // namespace selgen

#endif // SELGEN_TESTS_SPAWNEDSERVER_H
