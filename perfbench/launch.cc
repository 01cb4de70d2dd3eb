/**
 * @file
 * perfbench_launch: start a program with its start time on record.
 *
 *   perfbench_launch FD PROGRAM [ARGS...]
 *
 * Writes this process's CLOCK_MONOTONIC time in nanoseconds, one line,
 * to file descriptor FD, closes FD, and then execs PROGRAM in place
 * (same pid).  run.py starts `capsim serve` through it, so the daemon's
 * set-up is timed from the moment its program starts rather than from
 * the benchmark's fork, whose cost and scheduling are Python's.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include <unistd.h>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: perfbench_launch FD PROGRAM [ARGS...]\n");
        return 2;
    }
    const int fd = std::atoi(argv[1]);
    timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    const std::string stamp =
        std::to_string(static_cast<long long>(now.tv_sec) * 1000000000LL +
                       now.tv_nsec) +
        "\n";
    if (write(fd, stamp.data(), stamp.size()) !=
        static_cast<ssize_t>(stamp.size())) {
        std::perror("perfbench_launch: write");
        return 2;
    }
    close(fd);
    execv(argv[2], argv + 2);
    std::fprintf(stderr, "perfbench_launch: exec %s: %s\n", argv[2],
                 std::strerror(errno));
    return 127;
}
