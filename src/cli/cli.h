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
};

/**
 * Parse arguments (excluding argv[0] and the command word).
 * Unknown flags are kept; values may be attached with '='.
 */
Options parseArgs(const std::vector<std::string> &args);

/**
 * Execute a CAPsim command.  args[0] is the command word:
 *   apps                          list the workload suite
 *   timing                        print the clock tables
 *   cache-sweep <app|all>         TPI vs L1/L2 boundary
 *   iq-sweep <app|all>            TPI vs queue size
 *   interval-run <app>            Section-6 interval controller
 *   analyze-trace <path>          per-interval tables from a JSONL
 *                                 decision trace
 *   gen-trace <app> <path>        export a synthetic trace file
 *   analyze <path>                characterize a trace file
 *   serve --socket P|--stdio      study-server daemon (docs/SERVER.md)
 *   client <study> --socket P     submit a study file to a daemon
 *   help                          usage
 *
 * The sweep commands accept --jobs N (worker threads for the
 * (app, config) cells; 0 = every hardware thread; results are
 * bit-identical for every value) and --telemetry-json PATH (write
 * per-cell execution telemetry as JSON).
 *
 * The sweeps and interval-run additionally accept the observability
 * flags --trace PATH (JSONL decision trace + Chrome trace at
 * PATH.chrome.json), --chrome-trace PATH, and --metrics-json PATH
 * (telemetry + counter registry); see docs/OBSERVABILITY.md.
 *
 * @return Process exit code (0 on success; kUnknownCommandExit for an
 *         unrecognized command word).
 */
int runCommand(const std::vector<std::string> &args, std::ostream &out,
               std::ostream &err);

/** Exit code for an unknown command word (distinct from the usage
 *  errors' 2, mirroring BSD sysexits EX_USAGE). */
constexpr int kUnknownCommandExit = 64;

} // namespace cap::cli

#endif // CAPSIM_CLI_CLI_H
