#ifndef MAGICDB_SERVER_SESSION_H_
#define MAGICDB_SERVER_SESSION_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/cancellation.h"
#include "src/common/random.h"
#include "src/common/statusor.h"
#include "src/db/database.h"
#include "src/exec/exec_options.h"
#include "src/optimizer/optimizer_options.h"
#include "src/server/cursor.h"

namespace magicdb {

class QueryService;

/// Admission priority class of a session. The weighted-fair admission
/// controller shares capacity between classes by configurable weights, and
/// load shedding under overload never rejects kHigh queries — they queue.
enum class SessionPriority {
  kHigh = 0,
  kNormal = 1,
  kBackground = 2,
};

inline constexpr int kNumSessionPriorities = 3;

/// Stable metric/label name of a priority class ("high" / "normal" /
/// "background").
const char* SessionPriorityName(SessionPriority priority);

/// Construction-time knobs of one session.
struct SessionOptions {
  SessionPriority priority = SessionPriority::kNormal;
};

/// One client's connection to a QueryService: per-session optimizer
/// options, named prepared statements, and the entry points that route
/// through the service's admission controller, shared pool, and plan
/// cache. Results are byte-identical to calling Database::Run() with the
/// same options.
///
/// A Session must not outlive its QueryService. One session is meant to be
/// driven by one client thread at a time; distinct sessions are safe to
/// drive concurrently.
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int64_t id() const { return id_; }

  /// Admission priority class this session's queries are submitted under.
  SessionPriority priority() const { return session_options_.priority; }

  /// Session-private planning knobs. Changing them re-keys this session's
  /// plan-cache lookups (the options fingerprint is part of the key), so a
  /// cached plan never crosses an options change.
  const OptimizerOptions& options() const { return options_; }
  OptimizerOptions* mutable_options() { return &options_; }

  /// Runs a SELECT through the service (admission -> plan cache ->
  /// shared-pool execution) and materializes the full result. Implemented
  /// as a fetch-all loop over Open() — large results are better consumed
  /// through a cursor directly.
  StatusOr<QueryResult> Query(const std::string& sql,
                              const ExecOptions& exec = {});

  /// Opens a streaming cursor for a SELECT: rows arrive incrementally
  /// through Cursor::Fetch from a bounded, backpressured queue instead of
  /// one materialized vector. The query stays admitted until the cursor is
  /// closed (or destroyed). Concatenating all fetched batches yields
  /// exactly what Query() returns for the same statement and options.
  StatusOr<Cursor> Open(const std::string& sql, const ExecOptions& exec = {});

  /// Cursor variant of ExecutePrepared.
  StatusOr<Cursor> OpenPrepared(const std::string& name,
                                const ExecOptions& exec = {});

  /// Registers `sql` under `name`, parse/bind-validating it eagerly so
  /// errors surface at Prepare time. Re-preparing a name replaces it.
  Status Prepare(const std::string& name, const std::string& sql);

  /// Executes a statement registered with Prepare. Repeated executions hit
  /// the plan cache.
  StatusOr<QueryResult> ExecutePrepared(const std::string& name,
                                        const ExecOptions& exec = {});

  /// Plans a SELECT under this session's options; returns the EXPLAIN text.
  StatusOr<std::string> Explain(const std::string& sql);

 private:
  friend class QueryService;
  Session(QueryService* service, int64_t id, OptimizerOptions options,
          SessionOptions session_options);

  /// Jitter source for this session's retry backoff (DDL staleness, shed
  /// retry). Seeded from the session id, so retry timing is deterministic
  /// under test; one session is driven by one client thread, which is the
  /// only caller.
  Random* retry_rng() { return &retry_rng_; }

  QueryService* service_;
  const int64_t id_;
  OptimizerOptions options_;
  const SessionOptions session_options_;
  Random retry_rng_;

  std::mutex mu_;  // guards prepared_
  std::map<std::string, std::string> prepared_;
};

}  // namespace magicdb

#endif  // MAGICDB_SERVER_SESSION_H_
