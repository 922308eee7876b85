/* The counter table: every per-rank scheduler counter, named once.
 *
 * Each row is one of four kinds, and an expander passes one macro per kind
 * (SCIOTO_ROW_SKIP for kinds it does not want):
 *
 *   STAT(field, group)             a TcStats counter
 *   TWIN(field, group, Ctr, name)  a TcStats counter that is also metrics
 *                                  counter Ctr, exposed as "name"
 *   CTR(Ctr, name)                 a metrics counter only
 *   TIME(field)                    a TcStats phase time (ns)
 *
 * `group` is MAIN or FAULT; tc_stats_table prints the FAULT rows only when
 * one of them is non-zero (they all stay zero without a fault session).
 *
 * The STAT, TWIN and TIME rows generate, in row order, the TcStats fields,
 * TcStats::operator+=, the tc_stats_table rows, the scioto_stats_t fields
 * (times as <field>_ns) and tc_stats_get's copy. The TWIN and CTR rows
 * generate, in row order, metrics::Ctr, ctr_name() and so the layout of
 * every metrics patch and the Prometheus exposition.
 *
 * A counter that counts a trace event's occurrences or payload is also
 * named by that event's row in SCIOTO_TRACE_EV_KINDS (trace/trace.hpp),
 * and one SCIOTO_EVENT call records the event and bumps it (both sides of
 * a TWIN). Adding such a counter is adding a row here and naming it in
 * the event's row; any other counter is a row here plus its increment.
 * Plain C preprocessor: the C API header expands it too.
 */
#ifndef SCIOTO_METRICS_COUNTERS_H
#define SCIOTO_METRICS_COUNTERS_H

#define SCIOTO_ROW_SKIP(...)

#define SCIOTO_COUNTER_ROWS(STAT, TWIN, CTR, TIME)                           \
  /* tasks run to completion by this rank */                                \
  TWIN(tasks_executed, MAIN, TasksExecuted, "tasks_executed")               \
  /* tasks this rank added (local + remote targets) */                      \
  CTR(TasksSpawned, "tasks_spawned")                                        \
  STAT(tasks_spawned_local, MAIN)                                           \
  /* tasks added to another rank's queue */                                 \
  TWIN(tasks_spawned_remote, MAIN, RemoteSpawns, "remote_spawns")           \
  /* local push attempts (full and fenced ones included), and successful */ \
  /* local pops */                                                          \
  CTR(QPushes, "q_pushes")                                                  \
  CTR(QPops, "q_pops")                                                      \
  /* steal attempts that transferred >= 1 task */                           \
  TWIN(steals, MAIN, Steals, "steals")                                      \
  /* subset of steals from a victim on this rank's node */                  \
  STAT(steals_same_node, MAIN)                                              \
  /* steal_from calls on a victim, empty-handed ones included */            \
  TWIN(steal_attempts, MAIN, StealAttempts, "steal_attempts")               \
  /* empty-handed or aborted attempts */                                    \
  CTR(StealFails, "steal_fails")                                            \
  /* tasks received by stealing */                                          \
  TWIN(tasks_stolen, MAIN, TasksStolen, "tasks_stolen")                     \
  /* release operations (private -> shared) and the tasks they moved */     \
  TWIN(releases, MAIN, QReleases, "q_releases")                             \
  CTR(QReleasedTasks, "q_released_tasks")                                   \
  /* reacquire operations (shared -> private) and the tasks they moved */   \
  TWIN(reacquires, MAIN, QReacquires, "q_reacquires")                       \
  CTR(QReacquiredTasks, "q_reacquired_tasks")                               \
  /* termination votes passed up, and those carrying a black token */       \
  TWIN(td_waves_voted, MAIN, TdVotes, "td_votes")                           \
  TWIN(td_black_votes, MAIN, TdBlackVotes, "td_black_votes")                \
  /* termination waves started (root only) */                               \
  TWIN(waves_started, MAIN, TdWaves, "td_waves")                            \
  /* dirty marks sent, and skipped by the §5.3 coloring optimization */     \
  STAT(td_marks_sent, MAIN)                                                 \
  STAT(td_marks_skipped, MAIN)                                              \
  /* failure detector: probes issued, heartbeat publishes, and the */       \
  /* alive -> suspect, suspect -> alive and suspect -> dead transitions */  \
  CTR(Probes, "probes")                                                     \
  CTR(Heartbeats, "heartbeats")                                             \
  CTR(Suspects, "suspects")                                                 \
  CTR(Refutes, "refutes")                                                   \
  CTR(Confirms, "confirms")                                                 \
  /* one-sided op retries after an injected drop */                         \
  CTR(OpRetries, "op_retries")                                              \
  /* replayed steal transactions + adopted queues */                        \
  TWIN(tasks_recovered, FAULT, TasksRecovered, "tasks_recovered")           \
  /* steals truncated to zero tasks */                                      \
  STAT(steals_aborted, FAULT)                                               \
  /* dropped steal-commit and token sends retried */                        \
  STAT(op_retries, FAULT)                                                   \
  /* spanning-tree reconfigurations */                                      \
  STAT(td_resplices, FAULT)                                                 \
  /* one-sided ops on remote targets (termination tokens count as puts), */ \
  /* and the bytes gets and puts moved */                                   \
  CTR(PgasGets, "pgas_gets")                                                \
  CTR(PgasPuts, "pgas_puts")                                                \
  CTR(PgasAccs, "pgas_accs")                                                \
  CTR(PgasRmws, "pgas_rmws")                                                \
  CTR(PgasGetBytes, "pgas_get_bytes")                                       \
  CTR(PgasPutBytes, "pgas_put_bytes")                                       \
  /* DAG scheduler (src/dag), all zero when no DagScheduler runs: nodes */  \
  /* run here; nodes this rank made ready (fleet fired - fleet run = */     \
  /* ready or running nodes); dispatches bounced off a held conflict */     \
  /* lock; the subset of fired nodes homed on another rank */               \
  CTR(DagNodesRun, "dag_nodes_run")                                         \
  CTR(DagNodesFired, "dag_nodes_fired")                                     \
  CTR(DagConflictRetries, "dag_conflict_retries")                           \
  CTR(DagRemoteFires, "dag_remote_fires")                                   \
  /* control plane (src/control): epochs evaluated, knob changes */         \
  /* applied, knob rows inherited from dead ranks at adoption */            \
  CTR(CtlEpochs, "ctl_epochs")                                              \
  CTR(CtlDecisions, "ctl_decisions")                                        \
  CTR(CtlInherits, "ctl_inherits")                                          \
  /* phase length; time in task callbacks; time stealing and detecting */  \
  /* termination */                                                         \
  TIME(time_total)                                                          \
  TIME(time_working)                                                        \
  TIME(time_searching)

#endif /* SCIOTO_METRICS_COUNTERS_H */
