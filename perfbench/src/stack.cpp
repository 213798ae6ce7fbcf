// Hosting the serving stack: in this process (traced passes) or in a
// `perfbench serve` child process (gated passes), plus the inotify
// watch the generator uses to see a replica apply a publish.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <poll.h>
#include <sstream>
#include <sys/inotify.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "fpm/repl/replication_log.hpp"

namespace perfbench {

fpm::store::StoreOptions store_options() {
    fpm::store::StoreOptions options;
    options.fsync_policy = fpm::store::FsyncPolicy::kNever;
    options.snapshot_every = fpm::serve::ServeConfig{}.snapshot_every;
    return options;
}

Stack::Stack(const StackOptions& options) {
    const fpm::serve::ServeConfig config;
    if (!options.store_dir.empty()) {
        store_ = std::make_unique<fpm::store::ModelStore>(options.store_dir,
                                                          store_options());
        store_->recover(registry_);
        store_->attach(registry_);
    }
    engine_ = std::make_unique<fpm::serve::RequestEngine>(
        registry_, fpm::serve::RequestEngine::Options{});
    if (options.adapt) {
        adapter_ = std::make_unique<fpm::adapt::AdaptEngine>(
            *engine_, fpm::adapt::AdaptConfig{});
    }
    if (options.repl_listen) {
        FPM_CHECK(store_ != nullptr, "--repl-listen needs --store");
        log_ = std::make_unique<fpm::repl::ReplicationLog>(*store_);
        repl_server_ = std::make_unique<fpm::repl::ReplicationServer>(
            *log_, fpm::repl::ReplServerConfig{});
    }
    if (options.replica_of != 0) {
        engine_->set_read_only(true);
        fpm::repl::ReplicatorConfig repl_config;
        repl_config.source = fpm::serve::Endpoint{"127.0.0.1",
                                                  options.replica_of};
        repl_config.transport = config;
        replicator_ = std::make_unique<fpm::repl::Replicator>(
            *engine_, store_.get(), repl_config);
        replicator_->start();
    }
    server_ = std::make_unique<fpm::serve::SocketServer>(*engine_, config);
    server_->start();
}

Stack::~Stack() {
    try {
        stop();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: stack stop failed: %s\n", e.what());
    }
}

void Stack::stop() {
    if (stopped_) {
        return;
    }
    stopped_ = true;
    server_->stop();
    if (replicator_) {
        replicator_->stop();
    }
    if (repl_server_) {
        repl_server_->stop();
    }
    if (log_) {
        log_->stop();
    }
    if (store_) {
        store_->stop();
    }
}

int serve_main(int argc, char** argv) {
    try {
        StackOptions options;
        for (int i = 2; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--adapt") {
                options.adapt = true;
            } else if (flag == "--repl-listen") {
                options.repl_listen = true;
            } else if (flag == "--store" && i + 1 < argc) {
                options.store_dir = argv[++i];
            } else if (flag == "--replica-of" && i + 1 < argc) {
                options.replica_of =
                    static_cast<std::uint16_t>(std::stoul(argv[++i]));
            } else {
                std::fprintf(stderr, "perfbench serve: bad flag %s\n",
                             flag.c_str());
                return 2;
            }
        }
        Stack stack(options);
        std::printf("ready %u %u\n", stack.port(), stack.repl_port());
        std::fflush(stdout);
        for (int ch = std::getchar(); ch != EOF; ch = std::getchar()) {
        }
        stack.stop();
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench serve: %s\n", e.what());
        return 1;
    }
}

ChildProcess::ChildProcess(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    for (const auto& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    int to_child[2];
    int from_child[2];
    FPM_CHECK(::pipe2(to_child, O_CLOEXEC) == 0, "pipe failed");
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
        ::close(to_child[0]);
        ::close(to_child[1]);
        throw fpm::Error("pipe failed");
    }
    pid_ = ::fork();
    if (pid_ == 0) {
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    stdin_fd_ = to_child[1];
    if (pid_ < 0) {
        ::close(stdin_fd_);
        ::close(from_child[0]);
        throw fpm::Error("fork failed");
    }
    // The child prints one `ready <port> <repl_port>` line once serving.
    std::string line;
    char ch = 0;
    pollfd pfd{from_child[0], POLLIN, 0};
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (line.find('\n') == std::string::npos && Clock::now() < deadline) {
        if (::poll(&pfd, 1, 100) > 0) {
            if (::read(from_child[0], &ch, 1) != 1) {
                break;
            }
            line += ch;
        }
    }
    ::close(from_child[0]);
    unsigned port = 0;
    unsigned repl_port = 0;
    if (std::sscanf(line.c_str(), "ready %u %u", &port, &repl_port) != 2) {
        ::close(stdin_fd_);
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        throw fpm::Error("serving child did not start: '" + line + "'");
    }
    port_ = static_cast<std::uint16_t>(port);
    repl_port_ = static_cast<std::uint16_t>(repl_port);
}

ChildProcess::~ChildProcess() {
    try {
        stop();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
    }
}

void ChildProcess::stop() {
    if (pid_ <= 0) {
        return;
    }
    ::close(stdin_fd_);
    const pid_t pid = pid_;
    pid_ = -1;
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            throw fpm::Error("serving child did not stop; killed");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FPM_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "serving child exited abnormally");
}

double ChildProcess::cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const auto close_paren = text.rfind(')');
    FPM_CHECK(close_paren != std::string::npos, "cannot read child stat");
    std::istringstream fields(text.substr(close_paren + 2));
    std::string field;
    double ticks = 0.0;
    for (int index = 3; index <= 15 && fields >> field; ++index) {
        if (index >= 14) {
            ticks += std::stod(field);
        }
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ChildProcess::peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    throw fpm::Error("cannot read child VmHWM");
}

DirWatch::DirWatch(const std::string& dir)
    : fd_(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {
    FPM_CHECK(fd_ >= 0, "inotify_init1 failed");
    if (::inotify_add_watch(fd_, dir.c_str(),
                            IN_MODIFY | IN_CREATE | IN_MOVED_TO |
                                IN_CLOSE_WRITE) < 0) {
        ::close(fd_);
        throw fpm::Error("cannot watch " + dir + ": " + std::strerror(errno));
    }
}

DirWatch::~DirWatch() { ::close(fd_); }

bool DirWatch::wait(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
        return false;
    }
    alignas(inotify_event) char buffer[4096];
    while (::read(fd_, buffer, sizeof buffer) > 0) {
    }
    return true;
}

} // namespace perfbench
