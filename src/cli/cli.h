/**
 * @file
 * Command-line driver for CAPsim: one binary exposing the workload
 * suite, the design-space sweeps, trace generation and trace
 * characterization.  The dispatch layer is a library so the commands
 * are unit-testable; tools/capsim.cc is a thin main().
 */

#ifndef CAPSIM_CLI_CLI_H
#define CAPSIM_CLI_CLI_H

#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/job.h"

namespace cap::cli {

/** A malformed command line; runCommand() reports it and returns 2. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Parsed command line: --key value / --key=value flags + positionals. */
struct Options
{
    std::map<std::string, std::string> flags;
    std::vector<std::string> positional;

    /** Flag value or @p fallback when absent. */
    std::string get(const std::string &key,
                    const std::string &fallback = "") const;

    /**
     * Flag parsed as a decimal integer in [@p min, @p max]; @p fallback
     * when absent.  Throws UsageError naming the flag when the value is
     * empty, signed, not an integer, followed by anything, or outside
     * [@p min, @p max].
     */
    uint64_t getU64(const std::string &key, uint64_t fallback,
                    uint64_t min = 0, uint64_t max = UINT64_MAX) const;

    /**
     * Flag parsed as a finite, unsigned decimal number; @p fallback
     * when absent.  Throws UsageError naming the flag when the value is
     * empty, signed, not a number, followed by anything, or out of
     * double's range.
     */
    double getDouble(const std::string &key, double fallback) const;

    /** Throws UsageError naming the first flag not in @p known: a
     *  verb rejects every flag it does not read. */
    void only(const std::vector<std::string> &known) const;
};

/**
 * Parse arguments (excluding argv[0] and the command word).  Every
 * flag is kept, for the verb to read or reject (Options::only);
 * values may be attached with '='.
 */
Options parseArgs(const std::vector<std::string> &args);

/**
 * Execute a CAPsim command: args[0] is the command word, the rest its
 * arguments; `capsim help` lists every command and its flags.  A
 * command rejects a flag it does not read, or a malformed value, as a
 * usage error.
 *
 * @return Process exit code (0 on success; 2 on a usage error;
 *         kUnknownCommandExit for an unrecognized command word).
 */
int runCommand(const std::vector<std::string> &args, std::ostream &out,
               std::ostream &err);

/**
 * The study a study verb's command line asks for: args[0] is
 * cache-sweep, iq-sweep, interval-run, sample-profile or sample-run,
 * and the spec is the one the verb runs, read through the table
 * serve::jobFromJson reads (a sample verb's is a cache or IQ study of
 * 600000 references or 400000 instructions by default).  Throws
 * UsageError where the verb would exit 2.
 */
serve::JobSpec studySpec(const std::vector<std::string> &args);

/** Exit code for an unknown command word (distinct from the usage
 *  errors' 2, mirroring BSD sysexits EX_USAGE). */
constexpr int kUnknownCommandExit = 64;

} // namespace cap::cli

#endif // CAPSIM_CLI_CLI_H
