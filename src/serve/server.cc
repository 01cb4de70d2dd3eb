#include "server.h"

#include <sstream>

#include "util/json.h"

namespace cap::serve {

void
Connection::send(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (emit_)
        emit_(line);
}

void
Connection::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    emit_ = nullptr;
}

namespace {

/**
 * std::streambuf that collects characters and hands each completed
 * line (without the newline) to a callback.  Single-writer: the
 * ProgressMeter reporter thread is the only thread that writes to the
 * stream wrapped around this buffer.
 */
class LineCallbackBuf : public std::streambuf
{
  public:
    explicit LineCallbackBuf(std::function<void(const std::string &)> cb)
        : cb_(std::move(cb))
    {
    }

  protected:
    int
    overflow(int ch) override
    {
        if (ch == traits_type::eof())
            return ch;
        if (ch == '\n') {
            cb_(line_);
            line_.clear();
        } else {
            line_.push_back(static_cast<char>(ch));
        }
        return ch;
    }

  private:
    std::function<void(const std::string &)> cb_;
    std::string line_;
};

std::string
eventLine(const std::function<void(json::Writer &)> &fill)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    fill(w);
    w.endObject();
    return os.str();
}

} // namespace

StudyServer::StudyServer(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity, config_.spill_path),
      executor_(cache_, config_.jobs)
{
    cache_entries_ = cache_.size();
    executor_thread_ = std::thread([this] { executorLoop(); });
}

StudyServer::~StudyServer()
{
    shutdown();
    drain();
}

std::shared_ptr<Connection>
StudyServer::connect(Connection::Emit emit)
{
    return std::shared_ptr<Connection>(new Connection(std::move(emit)));
}

void
StudyServer::sendError(const std::shared_ptr<Connection> &conn,
                       const std::string &message)
{
    conn->send(eventLine([&](json::Writer &w) {
        w.key("event").value("error").key("error").value(message);
    }));
}

bool
StudyServer::handleLine(const std::shared_ptr<Connection> &conn,
                        const std::string &line)
{
    json::Value request;
    std::string parse_error;
    if (!json::parse(line, request, parse_error) || !request.isObject()) {
        sendError(conn, "malformed request: " +
                            (parse_error.empty() ? "not an object"
                                                 : parse_error));
        return true;
    }
    const std::string op = request.stringOr("op");

    if (op == "submit") {
        const json::Value *job_body = request.find("job");
        json::Value empty;
        empty.type = json::Value::Type::Object;
        if (!job_body)
            job_body = &empty;
        JobSpec spec;
        std::string error;
        if (!jobFromJson(*job_body, spec, error)) {
            sendError(conn, error);
            return true;
        }
        auto job = std::make_shared<Job>();
        job->spec = std::move(spec);
        job->conn = conn;
        job->enqueued = std::chrono::steady_clock::now();

        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (shutting_down_) {
                sendError(conn, "server is shutting down");
                return true;
            }
            if (queue_.size() >= config_.queue_capacity) {
                registry_.counter("serve.shed").add();
                conn->send(eventLine([&](json::Writer &w) {
                    w.key("event").value("overloaded")
                        .key("queue_depth")
                        .value(static_cast<uint64_t>(queue_.size()));
                }));
                return true;
            }
            const uint64_t id = next_id_++;
            job->id = id;
            // Ack before the job becomes visible to the executor, so
            // the ack always precedes the job's cell/result events on
            // the wire.
            conn->send(eventLine([&](json::Writer &w) {
                w.key("event").value("ack").key("id").value(id)
                    .key("kind").value(jobKindName(job->spec.kind))
                    .key("queue_depth")
                    .value(static_cast<uint64_t>(queue_.size() + 1));
            }));
            queue_.push_back(job);
            jobs_[id] = job;
            registry_.counter("serve.submitted").add();
        }
        cv_.notify_all();
        return true;
    }

    // status and cancel name a job; a malformed id is an error, not
    // job 0.
    uint64_t id = 0;
    std::string id_error;
    if ((op == "status" || op == "cancel") &&
        !request.readU64("id", id, id_error)) {
        sendError(conn, id_error);
        return true;
    }

    if (op == "status") {
        std::string state = "unknown";
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = jobs_.find(id);
            if (it != jobs_.end()) {
                switch (it->second->state) {
                case Job::State::Queued: state = "queued"; break;
                case Job::State::Running: state = "running"; break;
                case Job::State::Done:
                    state = it->second->terminal;
                    break;
                }
            }
        }
        conn->send(eventLine([&](json::Writer &w) {
            w.key("event").value("status").key("id").value(id)
                .key("state").value(state);
        }));
        return true;
    }

    if (op == "cancel") {
        std::string state = "unknown";
        std::shared_ptr<Job> dequeued;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = jobs_.find(id);
            if (it != jobs_.end()) {
                std::shared_ptr<Job> &job = it->second;
                switch (job->state) {
                case Job::State::Queued:
                    for (auto q = queue_.begin(); q != queue_.end(); ++q) {
                        if ((*q)->id == id) {
                            queue_.erase(q);
                            break;
                        }
                    }
                    job->state = Job::State::Done;
                    job->terminal = "cancelled";
                    registry_.counter("serve.cancelled").add();
                    state = "cancelled";
                    dequeued = job;
                    break;
                case Job::State::Running:
                    job->cancel.store(true, std::memory_order_relaxed);
                    state = "cancelling";
                    break;
                case Job::State::Done:
                    state = job->terminal;
                    break;
                }
            }
        }
        conn->send(eventLine([&](json::Writer &w) {
            w.key("event").value("status").key("id").value(id)
                .key("state").value(state);
        }));
        // A queued job that never ran still gets its terminal result
        // event, so clients waiting on the id always unblock.
        if (dequeued) {
            if (auto owner = dequeued->conn.lock()) {
                owner->send(eventLine([&](json::Writer &w) {
                    w.key("event").value("result").key("id").value(id)
                        .key("status").value("cancelled")
                        .key("error").value("cancelled");
                }));
            }
        }
        return true;
    }

    if (op == "stats") {
        std::string line_out;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            line_out = statsLineLocked();
        }
        conn->send(line_out);
        return true;
    }

    if (op == "shutdown") {
        shutdown();
        drain();
        conn->send(eventLine(
            [&](json::Writer &w) { w.key("event").value("bye"); }));
        return false;
    }

    sendError(conn, "unknown op '" + op +
                        "' (ops: submit, status, cancel, stats, "
                        "shutdown)");
    return true;
}

std::string
StudyServer::statsLineLocked()
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject()
        .key("event").value("stats")
        .key("queue_depth").value(static_cast<uint64_t>(queue_.size()))
        .key("running").value(running_ ? 1 : 0)
        .key("jobs").value(executor_.jobs())
        .key("cache_entries").value(static_cast<uint64_t>(cache_entries_))
        .key("cache_capacity")
        .value(static_cast<uint64_t>(config_.cache_capacity))
        .key("counters").beginObject();
    for (const char *name :
         {"serve.submitted", "serve.completed", "serve.shed",
          "serve.cancelled", "serve.deadline_expired", "serve.errors",
          "serve.cells", "serve.cache_hits", "serve.cache_misses"})
        w.key(name).value(registry_.counterValue(name));
    w.endObject().endObject();
    return os.str();
}

void
StudyServer::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutting_down_ = true;
        paused_ = false;
    }
    cv_.notify_all();
}

void
StudyServer::drain()
{
    std::lock_guard<std::mutex> join_lock(drain_mutex_);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return executor_done_; });
    }
    if (executor_thread_.joinable())
        executor_thread_.join();
}

bool
StudyServer::shuttingDown() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutting_down_;
}

size_t
StudyServer::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

uint64_t
StudyServer::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return registry_.counterValue(name);
}

void
StudyServer::pauseExecutor()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void
StudyServer::resumeExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    cv_.notify_all();
}

JobOutcome
StudyServer::runJob(const std::shared_ptr<Job> &job)
{
    auto deadline = job->enqueued +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            job->spec.deadline_s));
    auto interrupted = [job, deadline]() -> Interrupt {
        if (job->cancel.load(std::memory_order_relaxed))
            return Interrupt::Cancelled;
        if (job->spec.deadline_s > 0.0 &&
            std::chrono::steady_clock::now() >= deadline)
            return Interrupt::Deadline;
        return Interrupt::None;
    };
    auto onCell = [job](const std::string &app, bool cached) {
        auto conn = job->conn.lock();
        if (!conn)
            return;
        conn->send(eventLine([&](json::Writer &w) {
            w.key("event").value("cell").key("id").value(job->id)
                .key("app").value(app).key("cached").value(cached);
        }));
    };

    if (!config_.heartbeats)
        return executor_.run(job->spec, interrupted, onCell, nullptr);

    // Multiplex the PR-7 heartbeats onto the connection: the meter
    // emits JSONL report lines into a line-callback stream, and every
    // completed line is wrapped into a progress event tagged with the
    // job id.  The report is already a complete JSON object, so it
    // embeds as a raw value.
    LineCallbackBuf buf([job](const std::string &report) {
        auto conn = job->conn.lock();
        if (!conn || report.empty() || report.front() != '{')
            return;
        conn->send(eventLine([&](json::Writer &w) {
            w.key("event").value("progress").key("id").value(job->id)
                .key("report").rawValue(report);
        }));
    });
    std::ostream meter_os(&buf);
    obs::ProgressMeter meter(meter_os, /*jsonl=*/true,
                             config_.heartbeat_period_s);
    return executor_.run(job->spec, interrupted, onCell, &meter);
}

void
StudyServer::executorLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] {
                return (!queue_.empty() && !paused_) ||
                       (shutting_down_ && queue_.empty());
            });
            if (queue_.empty()) {
                executor_done_ = true;
                break;
            }
            job = queue_.front();
            queue_.pop_front();
            job->state = Job::State::Running;
            running_ = job;
        }

        JobOutcome outcome = runJob(job);

        std::string status;
        switch (outcome.status) {
        case JobOutcome::Status::Ok: status = "ok"; break;
        case JobOutcome::Status::Cancelled: status = "cancelled"; break;
        case JobOutcome::Status::Deadline: status = "deadline"; break;
        case JobOutcome::Status::Error: status = "error"; break;
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            running_ = nullptr;
            job->state = Job::State::Done;
            job->terminal = status;
            cache_entries_ = cache_.size();
            registry_.counter("serve.completed").add();
            registry_.counter("serve.cells").add(outcome.cells);
            registry_.counter("serve.cache_hits").add(outcome.cell_hits);
            registry_.counter("serve.cache_misses")
                .add(outcome.cell_misses);
            if (outcome.status == JobOutcome::Status::Cancelled)
                registry_.counter("serve.cancelled").add();
            else if (outcome.status == JobOutcome::Status::Deadline)
                registry_.counter("serve.deadline_expired").add();
            else if (outcome.status == JobOutcome::Status::Error)
                registry_.counter("serve.errors").add();
        }

        if (auto conn = job->conn.lock()) {
            conn->send(eventLine([&](json::Writer &w) {
                w.key("event").value("result").key("id").value(job->id)
                    .key("status").value(status);
                if (outcome.ok()) {
                    w.key("cells").value(outcome.cells)
                        .key("cache_hits").value(outcome.cell_hits)
                        .key("cache_misses").value(outcome.cell_misses)
                        .key("output").value(outcome.output);
                } else {
                    w.key("error").value(outcome.error);
                }
            }));
        }
    }
    cv_.notify_all();
}

} // namespace cap::serve
