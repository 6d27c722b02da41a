/**
 * @file
 * Fork-based kill drills shared by the sweep test suites: run a sweep
 * in a child process under an SVARD_FAULT plan and report how the
 * child ended, so the parent can resume over whatever it checkpointed.
 */
#ifndef SVARD_TESTS_KILL_DRILL_H
#define SVARD_TESTS_KILL_DRILL_H

#include <functional>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "fault_inject/fault_inject.h"

namespace svard {

/**
 * Run `sweep` in a forked child under the fault plan `fault` and
 * return the child's exit code: 137 when an injected kill fired, 0
 * when the sweep finished without one, 3 when it threw; -1 when the
 * fork failed or the child did not exit. The child inherits no pool
 * threads, so `sweep` should run its cells on one thread.
 */
inline int
exitCodeUnderFault(const std::string &fault,
                   const std::function<void()> &sweep)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        try {
            faults::configure(fault);
            sweep();
        } catch (...) {
            ::_Exit(3);
        }
        ::_Exit(0);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

} // namespace svard

#endif // SVARD_TESTS_KILL_DRILL_H
