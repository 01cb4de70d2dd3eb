/**
 * @file
 * Transports for the study server: an AF_UNIX socket daemon, a
 * stdio loop (one client over stdin/stdout, handy for tests and for
 * driving capsim from another process without a socket), and the
 * client that submits a study file and reassembles the offline verbs'
 * exact bytes from the result events.
 */

#ifndef CAPSIM_SERVE_TRANSPORT_H
#define CAPSIM_SERVE_TRANSPORT_H

#include <csignal>
#include <iosfwd>
#include <string>

namespace cap::serve {

class StudyServer;

/**
 * Blocks SIGINT and SIGTERM in the constructing thread, and so in
 * every thread it starts while the block lasts; the destructor
 * restores the thread's previous mask.  A thread parked in a
 * condition-variable wait cannot then take a stop signal meant for
 * serveSocket()'s poll (under ThreadSanitizer such a thread runs the
 * handler only when it wakes).  Construct one before the StudyServer
 * that serveSocket() will run, since the server starts its threads in
 * its constructor.
 */
class StopSignalBlock
{
  public:
    StopSignalBlock();
    ~StopSignalBlock();

    StopSignalBlock(const StopSignalBlock &) = delete;
    StopSignalBlock &operator=(const StopSignalBlock &) = delete;

    /** The previous mask less SIGINT and SIGTERM: the mask to wait
     *  for a stop signal with. */
    const sigset_t &waitMask() const { return wait_mask_; }

  private:
    sigset_t previous_;
    sigset_t wait_mask_;
};

/**
 * Serve @p server on a unix-domain socket at @p path (an existing
 * socket file is replaced).  Accepts until a client sends a shutdown
 * op or the process receives SIGINT/SIGTERM, then drains the queue,
 * closes every session, and removes the socket file.  Returns a
 * process exit code.  The two signals are blocked in the calling
 * thread, and so in every session thread, except inside the accept
 * loop's poll; the caller's mask is restored on return.
 */
int serveSocket(StudyServer &server, const std::string &path,
                std::ostream &err);

/**
 * Serve one client over @p in / @p out: each input line is a protocol
 * request, responses and events go to @p out.  Returns after a
 * shutdown op or EOF (the server is drained either way).
 */
int serveStdio(StudyServer &server, std::istream &in, std::ostream &out);

/** Options for runClient. */
struct ClientOptions
{
    /** Server socket path. */
    std::string socket_path;
    /** Study file: one JSON job object per line ('#' comments and
     *  blank lines skipped). */
    std::string study_path;
    /** When non-empty, append every received protocol line here. */
    std::string events_path;
    /** Send a shutdown op (stopping the daemon) after the study;
     *  the client fails unless the daemon answers "bye". */
    bool request_shutdown = false;
};

/**
 * Submit every job of a study file to a running daemon, sequentially,
 * and print the concatenated job outputs to @p out -- byte-identical
 * to running the offline verbs in file order.  A stats request is
 * issued after the last job (visible in the events file).  Returns 0
 * when every job succeeded (and a requested shutdown was confirmed),
 * 1 on any failure.
 */
int runClient(const ClientOptions &options, std::ostream &out,
              std::ostream &err);

} // namespace cap::serve

#endif // CAPSIM_SERVE_TRANSPORT_H
