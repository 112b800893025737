// Worker half of cross-process serving.
//
// One worker process serves one shard of the request key space for the
// event loop in src/serve/ (the `oasys serve` daemon, and `oasys shard`,
// which runs its batch as one session on that loop).  It speaks the wire
// protocol (shard/wire.h) on a pair of file descriptors: reads kConfig
// once, then serves repeated [kRequest* kRun -> kResult* kMetrics kDone]
// cycles through one resident YieldService (private LRU caches, no
// cross-process locks), so its caches stay warm across cycles.  EOF at a
// cycle boundary is a clean drain.
//
// The kConfig fingerprint hashes are re-derived from the decoded structs
// and verified before any work runs, so serializer/struct schema drift
// fails loudly instead of silently diverging from `oasys batch`.
//
// Test hook: OASYS_SHARD_TEST_CRASH="<spec-name>" makes the worker
// _exit(57) immediately before writing that spec's kResult;
// "<spec-name>:recv" exits on receipt of the request instead, and
// "<spec-name>:wedge" hangs forever (alive but never writing) at the
// pre-result site.  The first two give the fault-path tests a
// deterministic mid-batch worker death; the last one exercises the
// worker-timeout deadline, which must kill the wedged process rather
// than let the coordinator hang.
#pragma once

namespace oasys::shard {

// Exit code of the crash-injection test hook.
inline constexpr int kCrashHookExitCode = 57;

// Runs one worker session over the given descriptors (the CLI's
// `shard-worker` mode passes stdin/stdout).  The obs registry is reset at
// the start of every cycle (each kMetrics frame carries that cycle's
// deltas, which the coordinator accumulates); ServiceStats are cumulative
// for the session.  Returns the process exit code: 0 on EOF at a cycle
// boundary (including right after kConfig), nonzero on EOF mid-cycle or
// any protocol or fatal error (diagnostics go to stderr, which the
// coordinator leaves inherited).
int worker_session_main(int in_fd, int out_fd);

// Forwards to worker_session_main, for callers that still name it.
int worker_main(int in_fd, int out_fd);

}  // namespace oasys::shard
