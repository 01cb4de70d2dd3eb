#include "transport.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/server.h"
#include "util/json.h"

namespace cap::serve {

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onStopSignal(int)
{
    g_stop = 1;
}

/** Write all of @p data to @p fd; false on a closed/broken peer. */
bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Buffered line reader over a file descriptor. */
class FdLineReader
{
  public:
    explicit FdLineReader(int fd) : fd_(fd) {}

    /** Next line (without newline); false on EOF/error. */
    bool
    next(std::string &line)
    {
        for (;;) {
            size_t pos = buffer_.find('\n');
            if (pos != std::string::npos) {
                line = buffer_.substr(0, pos);
                buffer_.erase(0, pos + 1);
                return true;
            }
            char chunk[4096];
            ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buffer_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buffer_;
};

void
session(StudyServer &server, int fd)
{
    auto conn = server.connect(
        [fd](const std::string &line) { writeAll(fd, line + "\n"); });
    FdLineReader reader(fd);
    std::string line;
    while (reader.next(line)) {
        if (line.empty())
            continue;
        if (!server.handleLine(conn, line))
            break;
    }
    conn->close();
}

} // namespace

StopSignalBlock::StopSignalBlock()
{
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &stop_signals, &previous_);
    wait_mask_ = previous_;
    sigdelset(&wait_mask_, SIGINT);
    sigdelset(&wait_mask_, SIGTERM);
}

StopSignalBlock::~StopSignalBlock()
{
    pthread_sigmask(SIG_SETMASK, &previous_, nullptr);
}

int
serveSocket(StudyServer &server, const std::string &path,
            std::ostream &err)
{
    const StopSignalBlock stop_block;
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        err << "capsim serve: socket path too long: " << path << "\n";
        return 1;
    }
    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        err << "capsim serve: socket: " << std::strerror(errno) << "\n";
        return 1;
    }
    // Handlers go in before bind(): once the socket file exists a
    // client or supervisor may signal us, and a stop must still drain
    // and unlink.  A signal that arrives outside the poll stays
    // pending until the next one.
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGPIPE, SIG_IGN);

    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd, 8) < 0) {
        err << "capsim serve: bind " << path << ": "
            << std::strerror(errno) << "\n";
        ::close(listen_fd);
        return 1;
    }

    std::vector<std::pair<std::thread, int>> sessions;
    while (!g_stop && !server.shuttingDown()) {
        pollfd pfd{listen_fd, POLLIN, 0};
        const timespec timeout{0, 200'000'000};
        int ready = ::ppoll(&pfd, 1, &timeout, &stop_block.waitMask());
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            err << "capsim serve: poll: " << std::strerror(errno)
                << "\n";
            break;
        }
        if (ready == 0)
            continue;
        int client_fd = ::accept(listen_fd, nullptr, nullptr);
        if (client_fd < 0)
            continue;
        sessions.emplace_back(
            std::thread([&server, client_fd] {
                session(server, client_fd);
            }),
            client_fd);
    }

    // Drain queued work before tearing sessions down, so clients with
    // jobs in flight still receive their result events.  Shutting down
    // only the read side ends each session's request loop but leaves
    // its replies writable: the session that asked for the shutdown
    // may still be sending its "bye".
    server.shutdown();
    server.drain();
    for (auto &[thread, fd] : sessions) {
        ::shutdown(fd, SHUT_RD);
        thread.join();
        ::close(fd);
    }
    ::close(listen_fd);
    ::unlink(path.c_str());
    return 0;
}

int
serveStdio(StudyServer &server, std::istream &in, std::ostream &out)
{
    auto out_mutex = std::make_shared<std::mutex>();
    auto conn = server.connect([&out, out_mutex](const std::string &line) {
        std::lock_guard<std::mutex> lock(*out_mutex);
        out << line << '\n' << std::flush;
    });
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (!server.handleLine(conn, line))
            break;
    }
    server.shutdown();
    server.drain();
    conn->close();
    return 0;
}

namespace {

class ClientSession
{
  public:
    ClientSession(int fd, std::ofstream *events)
        : fd_(fd), reader_(fd), events_(events)
    {
    }

    bool
    sendLine(const std::string &line)
    {
        return writeAll(fd_, line + "\n");
    }

    /**
     * Read protocol lines until one matches @p accept (which fills in
     * whatever it needs from the parsed event); false on EOF or a
     * malformed line.
     */
    bool
    readUntil(const std::function<bool(const json::Value &)> &accept)
    {
        std::string line;
        while (reader_.next(line)) {
            if (line.empty())
                continue;
            if (events_ && events_->is_open())
                *events_ << line << '\n';
            json::Value event;
            std::string error;
            if (!json::parse(line, event, error) || !event.isObject())
                return false;
            if (accept(event))
                return true;
        }
        return false;
    }

  private:
    int fd_;
    FdLineReader reader_;
    std::ofstream *events_;
};

} // namespace

int
runClient(const ClientOptions &options, std::ostream &out,
          std::ostream &err)
{
    std::ifstream study(options.study_path);
    if (!study) {
        err << "capsim client: cannot read study file "
            << options.study_path << "\n";
        return 1;
    }
    std::vector<std::string> job_lines;
    std::string line;
    while (std::getline(study, line)) {
        size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;
        job_lines.push_back(line);
    }
    if (job_lines.empty()) {
        err << "capsim client: study file has no jobs\n";
        return 1;
    }

    sockaddr_un addr{};
    if (options.socket_path.size() >= sizeof(addr.sun_path)) {
        err << "capsim client: socket path too long\n";
        return 1;
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err << "capsim client: socket: " << std::strerror(errno) << "\n";
        return 1;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        err << "capsim client: connect " << options.socket_path << ": "
            << std::strerror(errno) << "\n";
        ::close(fd);
        return 1;
    }

    std::ofstream events;
    if (!options.events_path.empty()) {
        events.open(options.events_path, std::ios::app);
        if (!events) {
            err << "capsim client: cannot open events file "
                << options.events_path << "\n";
            ::close(fd);
            return 1;
        }
    }

    ClientSession client(fd, &events);
    int exit_code = 0;

    // Submit sequentially: one job in flight at a time keeps the
    // daemon's bounded queue out of the picture and makes the output
    // order the study-file order by construction.
    for (size_t i = 0; i < job_lines.size(); ++i) {
        if (!client.sendLine("{\"op\":\"submit\",\"job\":" +
                             job_lines[i] + "}")) {
            err << "capsim client: connection lost\n";
            exit_code = 1;
            break;
        }
        uint64_t id = 0;
        bool failed = false;
        if (!client.readUntil([&](const json::Value &event) {
                std::string type = event.stringOr("event");
                if (type == "ack") {
                    id = event.u64Or("id", 0);
                    return true;
                }
                if (type == "overloaded" || type == "error") {
                    err << "capsim client: job " << (i + 1)
                        << " rejected: "
                        << (type == "overloaded"
                                ? "server overloaded"
                                : event.stringOr("error"))
                        << "\n";
                    failed = true;
                    return true;
                }
                return false;
            })) {
            err << "capsim client: connection lost\n";
            exit_code = 1;
            break;
        }
        if (failed) {
            exit_code = 1;
            continue;
        }

        json::Value result;
        if (!client.readUntil([&](const json::Value &event) {
                if (event.stringOr("event") != "result" ||
                    event.u64Or("id", 0) != id)
                    return false;
                result = event;
                return true;
            })) {
            err << "capsim client: connection lost\n";
            exit_code = 1;
            break;
        }
        const std::string status = result.stringOr("status");
        const std::string error = result.stringOr("error");
        if (status == "ok") {
            out << result.stringOr("output");
        } else {
            err << "capsim client: job " << (i + 1) << " " << status
                << (error.empty() ? "" : ": " + error) << "\n";
            exit_code = 1;
        }
    }

    // Final stats snapshot (lands in the events file when recording).
    if (client.sendLine("{\"op\":\"stats\"}"))
        client.readUntil([](const json::Value &event) {
            return event.stringOr("event") == "stats";
        });

    if (options.request_shutdown &&
        !(client.sendLine("{\"op\":\"shutdown\"}") &&
          client.readUntil([](const json::Value &event) {
              return event.stringOr("event") == "bye";
          }))) {
        err << "capsim client: shutdown not confirmed (no bye)\n";
        exit_code = 1;
    }

    ::close(fd);
    return exit_code;
}

} // namespace cap::serve
