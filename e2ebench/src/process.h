// Child processes of the benchmark: the real `geocol` binary, spawned with
// a captured stdout, drained with SIGINT and killed on timeout. A child
// also dies with the benchmark (PR_SET_PDEATHSIG), so a crashed run leaves
// no orphan server behind.
#ifndef E2EBENCH_PROCESS_H_
#define E2EBENCH_PROCESS_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2ebench {

class Child {
 public:
  /// Starts `argv[0]` with `argv`. stdout is captured line by line; stderr
  /// is inherited.
  explicit Child(const std::vector<std::string>& argv);
  ~Child();  // SIGKILL + reap when still running

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool started() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// Waits up to `timeout_s` for a stdout line containing `needle` and
  /// returns it ("" on timeout or EOF).
  std::string WaitForLine(const std::string& needle, double timeout_s);

  /// Everything the child printed to stdout so far.
  std::string Output();

  /// Sends SIGINT, then waits up to `timeout_s` for exit, SIGKILLing the
  /// child past the deadline. Returns the exit status (128+signal when
  /// killed). Idempotent.
  int Interrupt(double timeout_s);

  /// Waits up to `timeout_s` for a normal exit (SIGKILL past it).
  int Wait(double timeout_s);

  /// VmHWM of the running child in MiB (0 when unreadable).
  double PeakRssMb() const;

 private:
  void ReadLoop(int fd);

  pid_t pid_ = -1;
  bool reaped_ = false;
  int exit_code_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string out_;  // guarded by mu_
  bool eof_ = false;  // guarded by mu_
  std::thread reader_;
};

/// Runs a child to completion; returns its exit code (-1 when it could
/// not start) and its stdout in `out` when non-null.
int RunToCompletion(const std::vector<std::string>& argv, double timeout_s,
                    std::string* out = nullptr);

}  // namespace e2ebench

#endif  // E2EBENCH_PROCESS_H_
