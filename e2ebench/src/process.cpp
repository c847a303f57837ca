#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>

namespace e2ebench {

namespace {

using Clock = std::chrono::steady_clock;

int DecodeStatus(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv) {
  // Built before fork: the child of a multithreaded process may only make
  // async-signal-safe calls, so it must not allocate.
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) return;
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(pipefd[1], STDOUT_FILENO);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  close(pipefd[1]);
  pid_ = pid;
  reader_ = std::thread([this, fd = pipefd[0]] { ReadLoop(fd); });
}

Child::~Child() {
  if (pid_ > 0 && !reaped_) {
    kill(pid_, SIGKILL);
    Wait(10.0);
  }
  if (reader_.joinable()) reader_.join();
}

void Child::ReadLoop(int fd) {
  char buf[4096];
  for (;;) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    std::lock_guard<std::mutex> lock(mu_);
    out_.append(buf, static_cast<size_t>(n));
    cv_.notify_all();
  }
  close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  eof_ = true;
  cv_.notify_all();
}

std::string Child::WaitForLine(const std::string& needle, double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    size_t pos = out_.find(needle);
    if (pos != std::string::npos) {
      size_t start = out_.rfind('\n', pos);
      start = start == std::string::npos ? 0 : start + 1;
      size_t end = out_.find('\n', pos);
      if (end != std::string::npos) return out_.substr(start, end - start);
    }
    if (eof_) return "";
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) return "";
  }
}

std::string Child::Output() {
  std::lock_guard<std::mutex> lock(mu_);
  return out_;
}

int Child::Wait(double timeout_s) {
  if (pid_ <= 0 || reaped_) return exit_code_;
  auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  bool killed = false;
  for (;;) {
    int status = 0;
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped_ = true;
      exit_code_ = DecodeStatus(status);
      break;
    }
    if (r < 0 && errno != EINTR) {
      reaped_ = true;
      break;
    }
    if (!killed && Clock::now() > deadline) {
      std::fprintf(stderr, "e2ebench: pid %d missed its %.0f s deadline; "
                   "killing it\n", static_cast<int>(pid_), timeout_s);
      kill(pid_, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reader_.joinable()) reader_.join();
  return exit_code_;
}

int Child::Interrupt(double timeout_s) {
  if (pid_ > 0 && !reaped_) kill(pid_, SIGINT);
  return Wait(timeout_s);
}

double Child::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int RunToCompletion(const std::vector<std::string>& argv, double timeout_s,
                    std::string* out) {
  Child child(argv);
  if (!child.started()) return -1;
  const int code = child.Wait(timeout_s);
  if (out != nullptr) *out = child.Output();
  return code;
}

}  // namespace e2ebench
