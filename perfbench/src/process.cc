#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "bench.h"

namespace perfbench {

Result<Child> Child::Spawn(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IOError(std::string("pipe2: ") + std::strerror(errno));
  }
  // Built before fork: the child may only make async-signal-safe calls.
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // A runner killed mid-run must not leave a daemon behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  return Child(pid, fds[0]);
}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_),
      fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      rest_(std::move(other.rest_)),
      reaped_(other.reaped_),
      exit_code_(other.exit_code_),
      max_rss_mb_(other.max_rss_mb_) {
  other.pid_ = -1;
  other.fd_ = -1;
  other.reaped_ = true;
}

Child::~Child() {
  if (!reaped_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Wait();
  }
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> Child::ReadLine(int64_t timeout_ms) {
  const int64_t deadline = NowNs() + timeout_ms * 1000000;
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    const int64_t remaining_ms = (deadline - NowNs()) / 1000000;
    if (fd_ < 0 || remaining_ms <= 0) {
      return Status::IOError("no line from child");
    }
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(remaining_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return Status::IOError("no line from child");
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError("child closed stdout");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void Child::Signal(int signum) {
  if (!reaped_ && pid_ > 0) ::kill(pid_, signum);
}

void Child::Wait() {
  if (reaped_) return;
  rest_ = std::move(buffer_);
  buffer_.clear();
  if (fd_ >= 0) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      rest_.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd_);
    fd_ = -1;
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  max_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB.
}

ProcessRun RunProcess(const std::vector<std::string>& argv) {
  ProcessRun run;
  const int64_t start = NowNs();
  Result<Child> child = Child::Spawn(argv);
  if (!child.ok()) return run;
  child->Wait();
  run.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  run.exit_code = child->exit_code();
  run.max_rss_mb = child->max_rss_mb();
  run.out = child->rest_of_stdout();
  return run;
}

}  // namespace perfbench
