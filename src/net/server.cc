#include "net/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <unordered_set>

#include "common/coding.h"
#include "common/crc.h"
#include "common/trace_export.h"
#include "engine/snapshot.h"
#include "replication/snapshot_store.h"
#include "shard/slot_wire.h"
#include "storage/fs_object_store.h"
#include "txlog/rpc_wire.h"

namespace memdb::net {

namespace {
// Rolling window for the client_recent_max_input_buffer gauge.
constexpr uint64_t kInputHwmWindowMs = 5000;
// Active-expiry cadence and per-cycle victim cap (Redis-like).
constexpr uint64_t kExpireEveryMs = 100;
constexpr size_t kExpirePerCycle = 20;
// Follower entries applied per loop iteration. Bounds how long replay can
// occupy the loop in one go: promotion-scale backlogs apply across many
// iterations (with a zero poll timeout) instead of one monolithic stall
// that would starve reads and lease upkeep (ROADMAP 2a).
constexpr size_t kFollowerApplyChunk = 4096;

// Same wire format as Node::EncodeEffectBatch, so log consumers decode
// either producer: engine version, then per-effect argc + argv.
std::string EncodeEffectBatch(const std::string& engine_version,
                              const std::vector<engine::Argv>& effects) {
  std::string out;
  PutLengthPrefixed(&out, engine_version);
  for (const engine::Argv& argv : effects) {
    PutVarint64(&out, argv.size());
    for (const std::string& a : argv) PutLengthPrefixed(&out, a);
  }
  return out;
}

// Random hex run id (INFO # Server), fresh per process start.
std::string MakeRunId() {
  std::random_device rd;
  static const char kHex[] = "0123456789abcdef";
  std::string id;
  id.reserve(32);
  for (int i = 0; i < 8; ++i) {
    uint32_t w = rd();
    for (int j = 0; j < 4; ++j) {
      id.push_back(kHex[w & 0xF]);
      w >>= 4;
    }
  }
  return id;
}

// SLOWLOG keeps a bounded copy of the command: at most 8 args, each capped
// at 64 bytes (the Redis convention, minus the "... (N more)" marker).
std::vector<std::string> SlowlogArgv(const std::vector<std::string>& argv) {
  std::vector<std::string> out;
  const size_t n = std::min<size_t>(argv.size(), 8);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(argv[i].size() <= 64 ? argv[i]
                                       : argv[i].substr(0, 61) + "...");
  }
  return out;
}
}  // namespace

#ifndef MEMDB_BUILD_SHA
#define MEMDB_BUILD_SHA "unknown"
#endif

RespServer::RespServer(engine::Engine* engine, ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      sampler_(config_.trace_sample_rate) {
  engine_->set_metrics(&metrics_);
  server_info_.pid = static_cast<uint64_t>(::getpid());
  server_info_.run_id = MakeRunId();
  server_info_.start_unix_ms = NowMs();
  server_info_.build_sha = MEMDB_BUILD_SHA;
  connected_clients_ = metrics_.GetGauge("net_connected_clients");
  blocked_clients_ = metrics_.GetGauge("net_blocked_clients");
  recent_max_input_ =
      metrics_.GetGauge("net_client_recent_max_input_buffer");
  maxclients_gauge_ = metrics_.GetGauge("net_maxclients");
  maxclients_gauge_->Set(static_cast<int64_t>(config_.maxclients));
  bytes_in_ = metrics_.GetCounter("net_input_bytes_total");
  bytes_out_ = metrics_.GetCounter("net_output_bytes_total");
  accepted_ = metrics_.GetCounter("net_connections_accepted_total");
  closed_ = metrics_.GetCounter("net_connections_closed_total");
  evicted_ = metrics_.GetCounter("net_evicted_clients_total");
  rejected_ = metrics_.GetCounter("net_rejected_connections_total");
  protocol_errors_ = metrics_.GetCounter("net_protocol_errors_total");
  log_blocked_replies_ = metrics_.GetCounter("txlog_blocked_replies_total");
  batch_commands_ = metrics_.GetHistogram("net_batch_commands");
  durable_ack_us_ = metrics_.GetHistogram("txlog_durable_ack_us");
  repl_applied_gauge_ = metrics_.GetGauge("repl_applied_index");
  repl_entries_applied_ = metrics_.GetCounter("repl_entries_applied_total");
  repl_bytes_applied_ = metrics_.GetCounter("repl_bytes_applied_total");
  repl_checksum_failures_ =
      metrics_.GetCounter("repl_checksum_failures_total");
  if (!config_.replica_of_log.empty()) server_info_.role = "replica";
  server_info_.shard_id = config_.shard_id;
  if (config_.cluster) {
    server_info_.cluster_enabled = true;
    metrics_.SetHelp("cluster_enabled", "1 when hash-slot routing is active");
    metrics_.GetGauge("cluster_enabled")->Set(1);
    metrics_.SetHelp("cluster_slots_owned",
                     "Hash slots this shard currently serves");
    cluster_slots_owned_ = metrics_.GetGauge("cluster_slots_owned");
    metrics_.SetHelp("cluster_slots_migrating",
                     "Slots streaming out to an importing peer");
    cluster_slots_migrating_ = metrics_.GetGauge("cluster_slots_migrating");
    metrics_.SetHelp("cluster_slots_importing",
                     "Slots streaming in from their current owner");
    cluster_slots_importing_ = metrics_.GetGauge("cluster_slots_importing");
    metrics_.SetHelp("cluster_redirects_total",
                     "Keyed commands answered with -MOVED or -ASK");
    cluster_redirects_total_ = metrics_.GetCounter("cluster_redirects_total");
    cluster_redirects_moved_ =
        metrics_.GetCounter("cluster_redirects_total", {{"kind", "moved"}});
    cluster_redirects_ask_ =
        metrics_.GetCounter("cluster_redirects_total", {{"kind", "ask"}});
  }
}

RespServer::~RespServer() { Stop(); }

uint64_t RespServer::NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t RespServer::NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status RespServer::Start() {
  MEMDB_RETURN_IF_ERROR(loop_.Init());
  if (!config_.replica_of_log.empty() && !config_.txlog_endpoints.empty()) {
    return Status::InvalidArgument(
        "replica_of_log and txlog_endpoints are mutually exclusive");
  }
  if (config_.restore) {
    if (config_.store_dir.empty()) {
      return Status::InvalidArgument("restore requires store_dir");
    }
    replication::RestoreResult rr;
    MEMDB_RETURN_IF_ERROR(RestoreAtStartup(&rr));
    server_info_.applied_index = rr.applied_index;
    repl_running_checksum_ = rr.running_checksum;
    repl_applied_gauge_->Set(static_cast<int64_t>(rr.applied_index));
    std::fprintf(
        stderr,
        "memorydb-server: restored snapshot position %llu, replayed %llu "
        "log entries (%llu checksum records verified), applied index %llu\n",
        static_cast<unsigned long long>(rr.snapshot_position),
        static_cast<unsigned long long>(rr.entries_replayed),
        static_cast<unsigned long long>(rr.checksum_records_verified),
        static_cast<unsigned long long>(rr.applied_index));
  }
  role_ = config_.replica_of_log.empty() ? ServerRole::kPrimary
                                         : ServerRole::kReplica;
  if (config_.failover) {
    if (config_.txlog_endpoints.empty() && config_.replica_of_log.empty()) {
      return Status::InvalidArgument(
          "failover requires txlog_endpoints or replica_of_log");
    }
    failover::FailoverManager::Options mo;
    mo.endpoints = role_ == ServerRole::kReplica ? config_.replica_of_log
                                                 : config_.txlog_endpoints;
    mo.shard_id = config_.shard_id;
    mo.owner_id = config_.txlog_writer_id;
    mo.lease_duration_ms = config_.lease_duration_ms;
    mo.renew_interval_ms = config_.lease_renew_ms;
    mo.probe_interval_ms = config_.failover_probe_ms;
    mo.grace_ms = config_.failover_grace_ms;
    mo.rpc_timeout_ms = config_.txlog_rpc_timeout_ms;
    mo.trace = &trace_;
    failover_ =
        std::make_unique<failover::FailoverManager>(std::move(mo), &metrics_);
    // A primary blocks here until the shard lease is held: serving writes
    // without the lease would defeat the §4.1 fencing contract.
    MEMDB_RETURN_IF_ERROR(failover_->Start(role_ == ServerRole::kPrimary,
                                           [this] { loop_.Wakeup(); },
                                           config_.lease_acquire_wait_ms));
  }
  if (!config_.txlog_endpoints.empty()) {
    RemoteLogGate::Options gopt;
    gopt.endpoints = config_.txlog_endpoints;
    gopt.writer_id = config_.txlog_writer_id;
    gopt.rpc_timeout_ms = config_.txlog_rpc_timeout_ms;
    gopt.backoff_base_ms = config_.txlog_backoff_base_ms;
    gopt.backoff_cap_ms = config_.txlog_backoff_cap_ms;
    gopt.max_attempts = config_.txlog_max_attempts;
    gopt.checksum_every = config_.txlog_checksum_every;
    gopt.checksum_seed = repl_running_checksum_;
    gopt.tail_poll_ms = config_.txlog_tail_poll_ms;
    gopt.fence = config_.failover;
    gopt.shard_id = config_.shard_id;
    gopt.trace = &trace_;
    // Instruments resolve into metrics_ here, before the loop thread exists.
    gate_ = std::make_unique<RemoteLogGate>(std::move(gopt), &metrics_);
    gate_for_drain_.store(gate_.get(), std::memory_order_release);
    MEMDB_RETURN_IF_ERROR(gate_->Start([this] { loop_.Wakeup(); }));
  }
  if (!config_.replica_of_log.empty()) {
    replication::LogFollower::Options fopt;
    fopt.endpoints = config_.replica_of_log;
    fopt.start_index = server_info_.applied_index + 1;
    fopt.poll_wait_ms = config_.replica_poll_wait_ms;
    fopt.rpc_timeout_ms = config_.txlog_rpc_timeout_ms;
    follower_ =
        std::make_unique<replication::LogFollower>(std::move(fopt), &metrics_);
    MEMDB_RETURN_IF_ERROR(follower_->Start([this] { loop_.Wakeup(); }));
  }
  MEMDB_RETURN_IF_ERROR(listener_.Open(config_.bind_address, config_.port,
                                       config_.tcp_backlog));
  MEMDB_RETURN_IF_ERROR(loop_.Add(listener_.fd(), kReadable, &listener_));
  if (config_.cluster) {
    // After the listener opens so a kernel-assigned port can be announced.
    const std::string announce =
        !config_.cluster_announce.empty()
            ? config_.cluster_announce
            : config_.bind_address + ":" + std::to_string(listener_.port());
    slot_table_ = std::make_unique<shard::SlotTable>();
    slot_table_->Init(config_.shard_id, announce);
    std::vector<uint16_t> slots;
    MEMDB_RETURN_IF_ERROR(shard::ParseSlotRanges(
        config_.cluster_slots.empty() ? "0-16383" : config_.cluster_slots,
        &slots));
    slot_table_->AssignLocal(slots);
    for (const ServerConfig::ClusterPeer& peer : config_.cluster_peers) {
      std::vector<uint16_t> peer_slots;
      MEMDB_RETURN_IF_ERROR(
          shard::ParseSlotRanges(peer.slots, &peer_slots));
      slot_table_->AssignRemote(peer_slots, peer.shard_id, peer.endpoint);
    }
    shard::SlotMigrator::Options mopt;
    mopt.batch_keys = config_.migration_batch_keys;
    migrator_ = std::make_unique<shard::SlotMigrator>(
        mopt, slot_table_.get(), static_cast<shard::MigrationHost*>(this),
        &metrics_);
    RefreshClusterGauges();
  }
  const int extra = config_.io_threads > 1 ? config_.io_threads - 1 : 0;
  pool_ = std::make_unique<IoThreadPool>(extra);
  input_hwm_window_start_ms_ = NowMs();
  started_ = true;
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void RespServer::Stop() {
  if (!started_) return;
  // gate_ itself mutates on the loop thread (promotion/demotion); the
  // atomic mirror is the only safe cross-thread view of it.
  RemoteLogGate* drain_gate =
      gate_for_drain_.load(std::memory_order_acquire);
  if (drain_gate != nullptr) {
    // Drain: leave the loop running until every in-flight append completed
    // and every parked reply was released (or the deadline passes — e.g.
    // the log group lost its quorum).
    const uint64_t deadline = NowMs() + config_.shutdown_drain_ms;
    while ((drain_gate->inflight() > 0 ||
            held_atomic_.load(std::memory_order_acquire) > 0) &&
           NowMs() < deadline) {
      loop_.Wakeup();
      // lint:allow-blocking — Stop() runs on the caller thread, not the loop.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop_requested_.store(true, std::memory_order_release);
  loop_.Wakeup();
  if (loop_thread_.joinable()) loop_thread_.join();
  started_ = false;
  // The loop has exited; joining the migration channel worker is safe.
  if (migrator_ != nullptr) migrator_->Shutdown();
  if (failover_ != nullptr) failover_->Stop();
  if (gate_ != nullptr) gate_->Stop();
  if (retired_gate_ != nullptr) retired_gate_->Stop();
  if (follower_ != nullptr) follower_->Stop();
  // The loop has exited: tear down every connection and the accept socket.
  for (auto& [ptr, owned] : connections_) owned->Close();
  connections_.clear();
  listener_.Close();
  pool_.reset();  // joins io threads
  connected_clients_->Set(0);
  if (!config_.trace_file.empty()) {
    // The loop is gone, so the span ring is quiescent; export every
    // surviving span for offline merging (tools/memorydb-trace).
    const std::string jsonl = ExportSpansJsonl(trace_, TraceProcLabel());
    std::FILE* f = std::fopen(config_.trace_file.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "memorydb-server: cannot write trace file %s\n",
                   config_.trace_file.c_str());
    }
  }
}

Status RespServer::RestoreAtStartup(replication::RestoreResult* result) {
  // Startup thread; the loop thread does not exist yet, so driving the
  // engine and blocking on *Sync client calls here is safe.
  storage::FsObjectStore store(config_.store_dir);
  MEMDB_RETURN_IF_ERROR(store.Open());
  replication::SnapshotStore snapshots(&store, config_.shard_id);
  MEMDB_RETURN_IF_ERROR(
      replication::RestoreFromStore(&snapshots, engine_, result));
  const std::vector<std::string>& endpoints = !config_.replica_of_log.empty()
                                                  ? config_.replica_of_log
                                                  : config_.txlog_endpoints;
  if (endpoints.empty()) return Status::OK();  // snapshot-only restore
  // Replay the committed tail through a temporary client; the long-lived
  // follower/gate machinery starts after the engine is caught up.
  rpc::LoopThread loop;
  MEMDB_RETURN_IF_ERROR(loop.Start());
  Status replayed;
  {
    txlog::RemoteClient::Options copt;
    copt.rpc_timeout_ms = config_.txlog_rpc_timeout_ms;
    txlog::RemoteClient client(&loop, endpoints, copt, nullptr);
    replayed = replication::ReplayLogTail(&client, engine_, result,
                                          /*target_tail=*/0);
    client.Shutdown();
  }
  loop.Stop();
  return replayed;
}

void RespServer::ApplyFollowerEntries(uint64_t now_ms) {
  loop_affinity_.AssertHeldThread();
  if (follower_ == nullptr) return;
  if (follower_->log_trimmed() && !repl_trim_fatal_reported_) {
    repl_trim_fatal_reported_ = true;
    std::fprintf(stderr,
                 "memorydb-server: transaction log trimmed past applied "
                 "index %llu; restart with --restore to reseed from the "
                 "snapshot store\n",
                 static_cast<unsigned long long>(server_info_.applied_index));
  }
  {
    std::vector<txlog::LogEntry> drained = follower_->DrainEntries();
    for (txlog::LogEntry& e : drained) {
      follower_backlog_.push_back(std::move(e));
    }
  }
  if (follower_backlog_.empty()) return;
  // Apply a bounded chunk per iteration: a promotion-scale backlog must not
  // occupy the loop long enough to starve MaintainFailover (and with it the
  // renew-driven lease horizon checks) — LoopMain polls with a zero timeout
  // while the backlog is non-empty, so replay throughput is unchanged.
  std::vector<txlog::LogEntry> entries;
  const size_t chunk =
      std::min(follower_backlog_.size(), kFollowerApplyChunk);
  entries.reserve(chunk);
  for (size_t i = 0; i < chunk; ++i) {
    entries.push_back(std::move(follower_backlog_.front()));
    follower_backlog_.pop_front();
  }
  uint64_t bytes = 0;
  for (const txlog::LogEntry& e : entries) {
    if (e.record.type == txlog::RecordType::kData) {
      if (!replication::ApplyEffectBatch(engine_, Slice(e.record.payload),
                                         now_ms)) {
        std::fprintf(stderr,
                     "memorydb-server: malformed effect batch at log index "
                     "%llu (skipped)\n",
                     static_cast<unsigned long long>(e.index));
      }
      repl_running_checksum_ =
          Crc64(repl_running_checksum_, Slice(e.record.payload));
      bytes += e.record.payload.size();
      // The primary's trace id rides the log record: a replica's apply spans
      // join the same cross-process chain when trace files are merged.
      trace_.Record(e.record.trace_id, "replica.apply", NowUs(), e.index);
    } else if (e.record.type == txlog::RecordType::kChecksum) {
      Decoder dec(e.record.payload);
      uint64_t expected = 0;
      if (dec.GetFixed64(&expected) && expected != repl_running_checksum_) {
        repl_checksum_failures_->Increment();
        std::fprintf(stderr,
                     "memorydb-server: replication checksum chain mismatch "
                     "at log index %llu\n",
                     static_cast<unsigned long long>(e.index));
      }
    } else if (e.record.type == txlog::RecordType::kLease &&
               failover_ != nullptr) {
      // A committed lease grant/renewal is the holder's liveness heartbeat
      // riding the data plane (§4.2): refresh the monitor's deadline.
      txlog::rpcwire::LeaseGrant grant;
      if (txlog::rpcwire::LeaseGrant::Decode(Slice(e.record.payload),
                                             &grant) &&
          grant.shard_id == config_.shard_id) {
        failover_->NoteLeaseObserved(grant.owner, grant.duration_ms);
      }
    } else if (e.record.type == txlog::RecordType::kSlotOwnership &&
               slot_table_ != nullptr) {
      // A committed slot flip (§5). Epoch-guarded, so replay after restart
      // or out-of-order observation cannot roll the table backwards. Slot
      // records ride outside the §7.2.1 data checksum chain.
      shard::SlotOwnershipRecord rec;
      if (shard::SlotOwnershipRecord::Decode(Slice(e.record.payload), &rec)) {
        slot_table_->ApplyOwnership(rec.slot, rec.epoch, rec.to_shard,
                                    rec.to_endpoint);
        RefreshClusterGauges();
      }
    }
    server_info_.applied_index = e.index;
  }
  repl_entries_applied_->Increment(entries.size());
  repl_bytes_applied_->Increment(bytes);
  repl_applied_gauge_->Set(static_cast<int64_t>(server_info_.applied_index));
  follower_->NoteApplied(server_info_.applied_index);
}

void RespServer::MaintainFailover(uint64_t now_ms) {
  loop_affinity_.AssertHeldThread();
  (void)now_ms;
  if (failover_ == nullptr) return;
  const failover::FailoverState fs = failover_->state();
  switch (role_) {
    case ServerRole::kReplica:
      if (fs == failover::FailoverState::kReplaying) {
        role_ = ServerRole::kPromoting;
        std::fprintf(
            stderr,
            "memorydb-server: shard lease won at log index %llu; replaying "
            "the committed tail before serving writes\n",
            static_cast<unsigned long long>(failover_->replay_target()));
      }
      break;
    case ServerRole::kPromoting: {
      if (fs == failover::FailoverState::kMonitoring ||
          fs == failover::FailoverState::kElecting) {
        // Lost the lease again before replay finished: back to replica.
        role_ = ServerRole::kReplica;
        break;
      }
      if (fs != failover::FailoverState::kReplaying) break;
      // Promotion gates on the replay target: every append the old primary
      // could have acked committed strictly below our grant index, so once
      // applied_index reaches it, no acked write can be missing (§4.1).
      if (server_info_.applied_index >= failover_->replay_target()) {
        PromoteToPrimary();
      }
      break;
    }
    case ServerRole::kPrimary:
      // Either signal proves the lease is gone: a rejected renewal, or the
      // fenced gate hitting a foreign record in its append chain.
      if (fs == failover::FailoverState::kFenced ||
          (gate_ != nullptr && gate_->fenced())) {
        if (fs != failover::FailoverState::kFenced) {
          failover_->NoteExternallyFenced();
        }
        DemoteFenced();
      }
      break;
    case ServerRole::kFenced:
      break;
  }
}

void RespServer::PromoteToPrimary() {
  loop_affinity_.AssertHeldThread();
  failover_->NoteReplayReached();
  // Tear down the follower: entries past the replay target are only lease
  // renewals (no data record can commit above our grant — fencing), so
  // dropping the undrained feed loses nothing.
  // lint:allow-blocking — Stop joins the follower's loop thread; promotion
  // is a once-per-failover event and the stall is part of measured MTTR.
  follower_->Stop();
  follower_.reset();
  // Whatever the chunked applier still holds past the replay target can
  // only be lease renewals (no data record commits above our grant).
  follower_backlog_.clear();
  RemoteLogGate::Options gopt;
  gopt.endpoints = config_.replica_of_log;
  gopt.writer_id = config_.txlog_writer_id;
  gopt.rpc_timeout_ms = config_.txlog_rpc_timeout_ms;
  gopt.backoff_base_ms = config_.txlog_backoff_base_ms;
  gopt.backoff_cap_ms = config_.txlog_backoff_cap_ms;
  gopt.max_attempts = config_.txlog_max_attempts;
  gopt.checksum_every = config_.txlog_checksum_every;
  // The replica-side chain verified through applied_index seeds the
  // primary-side chain: the §7.2.1 checksum survives the failover.
  gopt.checksum_seed = repl_running_checksum_;
  gopt.tail_poll_ms = config_.txlog_tail_poll_ms;
  gopt.fence = true;
  gopt.shard_id = config_.shard_id;
  gopt.trace = &trace_;
  gate_ = std::make_unique<RemoteLogGate>(std::move(gopt), &metrics_);
  gate_for_drain_.store(gate_.get(), std::memory_order_release);
  const Status st = gate_->Start([this] { loop_.Wakeup(); });
  if (!st.ok()) {
    // Endpoints are non-empty (we were following them), so this is a local
    // resource failure; without a gate this node cannot serve writes.
    std::fprintf(stderr, "memorydb-server: promotion gate start failed: %s\n",
                 st.ToString().c_str());
    gate_for_drain_.store(nullptr, std::memory_order_release);
    gate_.reset();
    return;
  }
  role_ = ServerRole::kPrimary;
  server_info_.role = "master";
  failover_->ConfirmPromoted();
  std::fprintf(stderr,
               "memorydb-server: promoted to primary (applied index %llu)\n",
               static_cast<unsigned long long>(server_info_.applied_index));
}

void RespServer::DemoteFenced() {
  loop_affinity_.AssertHeldThread();
  role_ = ServerRole::kFenced;
  server_info_.role = "fenced";
  // Every parked reply waits on durability that can never be acknowledged
  // by this node again: fail them and hang up, Redis-style.
  for (auto& [c, q] : held_) {
    held_count_ -= q.size();
    q.clear();
    c->QueueOutput(
        "-READONLY Fenced: this node lost its primary lease; reconnect to "
        "the new primary.\r\n");
  }
  held_.clear();
  // Hang up on EVERY client, not just the parked ones: a client that saw
  // this node ack a write must not keep reading from it as if it were still
  // the primary — its next read here would be stale the moment the new
  // primary acks anything. Forcing a reconnect forces rediscovery.
  for (auto& [ptr, conn] : connections_) {
    ptr->set_state(Connection::State::kClosing);
  }
  held_atomic_.store(held_count_, std::memory_order_release);
  key_hazards_.clear();
  conn_last_write_seq_.clear();
  pending_writes_.clear();
  failed_.clear();
  // Retire the gate: stop its loop now (cuts background retries), destroy
  // it with the server. gate_ null makes every write path read-only.
  gate_for_drain_.store(nullptr, std::memory_order_release);
  if (gate_ != nullptr) {
    // lint:allow-blocking — joins the gate loop once, on the terminal
    // demotion path; the node is already read-only.
    gate_->Stop();
    retired_gate_ = std::move(gate_);
  }
  uint64_t holder = failover_->observed_holder();
  if (holder == 0 && retired_gate_ != nullptr) {
    holder = retired_gate_->fenced_by();
  }
  std::fprintf(stderr,
               "memorydb-server: fenced — shard lease lost to writer %llu; "
               "serving reads only\n",
               static_cast<unsigned long long>(holder));
}

void RespServer::AcceptPending() {
  loop_affinity_.AssertHeldThread();
  for (;;) {
    const int fd = listener_.Accept();
    if (fd < 0) return;
    if (connections_.size() >= config_.maxclients) {
      // Same shape Redis uses: tell the client why, then hang up.
      static const char kErr[] = "-ERR max number of clients reached\r\n";
      [[maybe_unused]] ssize_t n =
          ::send(fd, kErr, sizeof(kErr) - 1, MSG_NOSIGNAL);
      ::close(fd);
      rejected_->Increment();
      continue;
    }
    auto conn =
        std::make_unique<Connection>(fd, next_conn_id_++, config_.decode);
    Connection* raw = conn.get();
    if (!loop_.Add(fd, kReadable, raw).ok()) {
      continue;  // conn destructor closes the fd
    }
    connections_.emplace(raw, std::move(conn));
    accepted_->Increment();
    connected_clients_->Set(static_cast<int64_t>(connections_.size()));
  }
}

void RespServer::Hold(Connection* c, HeldReply reply) {
  loop_affinity_.AssertHeldThread();
  held_[c].push_back(std::move(reply));
  ++held_count_;
  held_atomic_.store(held_count_, std::memory_order_release);
  log_blocked_replies_->Increment();
}

uint64_t RespServer::HazardFor(const engine::CommandSpec* spec,
                               const std::vector<std::string>& argv) const {
  if (spec == nullptr || spec->key_step <= 0 || key_hazards_.empty()) {
    return 0;
  }
  const int argc = static_cast<int>(argv.size());
  int last = spec->last_key >= 0 ? spec->last_key : argc + spec->last_key;
  if (last >= argc) last = argc - 1;
  uint64_t hazard = 0;
  for (int i = spec->first_key; i > 0 && i <= last; i += spec->key_step) {
    const auto it = key_hazards_.find(argv[static_cast<size_t>(i)]);
    if (it != key_hazards_.end() && it->second > hazard) {
      hazard = it->second;
    }
  }
  return hazard;
}

void RespServer::ExecutePending(Connection* c, uint64_t now_ms) {
  // The engine is single-threaded by construction: only the loop thread may
  // dispatch into it.
  loop_affinity_.AssertHeldThread();
  engine::ExecContext ctx;
  ctx.now_ms = now_ms;
  ctx.role = role_ == ServerRole::kPrimary ? engine::Role::kPrimary
                                           : engine::Role::kReplicaRead;
  ctx.rng = &engine_->rng();
  ctx.server = &server_info_;
  std::string encoded;
  for (const std::vector<std::string>& argv : c->pending()) {
    if (c->state() != Connection::State::kOpen) break;
    // One table lookup per command. The table's names are upper case; only
    // names it lacks (the admin plane's, unknown ones) are upper-cased here.
    const engine::CommandSpec* spec =
        argv.empty() ? nullptr : engine_->FindCommand(argv[0]);
    std::string unlisted;
    if (spec == nullptr && !argv.empty()) {
      unlisted = engine::Engine::Upper(argv[0]);
    }
    const std::string& name = spec != nullptr ? spec->name : unlisted;
    if (name == "QUIT") {
      c->QueueOutput("+OK\r\n");
      c->set_state(Connection::State::kClosing);
      break;
    }
    // Admin-plane: answered from loop state, never parked behind the gate —
    // a scrape must not wait on quorum while diagnosing a stalled quorum.
    if (name == "TRACE") {
      HandleTraceCommand(c, argv);
      continue;
    }
    if (name == "SLOWLOG") {
      HandleSlowlogCommand(c, argv);
      continue;
    }
    if (name == "CLUSTER") {
      HandleClusterCommand(c, argv);
      continue;
    }
    if (name == "ASKING") {
      if (slot_table_ == nullptr) {
        c->QueueOutput("-ERR This instance has cluster support disabled\r\n");
      } else {
        c->asking = true;
        c->QueueOutput("+OK\r\n");
      }
      continue;
    }
    // One-shot: ASKING covers exactly the next command, used or not.
    const bool asking = c->asking;
    c->asking = false;
    if (slot_table_ != nullptr &&
        RouteClusterCommand(c, spec, argv, asking)) {
      continue;
    }
    if (role_ != ServerRole::kPrimary) {
      if (name == "WAIT") {
        // Not the serving primary — there are no acks of ours to count.
        // Answer 0 (Redis replica semantics); after promotion completes the
        // gate path below reports the new primary's real quorum size, never
        // a stale replica answer.
        c->QueueOutput(":0\r\n");
        continue;
      }
      if (spec != nullptr && spec->is_write) {
        // A promoting node must refuse writes until replay reaches the
        // fenced tail — acking before that could order a new write ahead
        // of an old acked one it hasn't applied yet.
        const char* msg =
            role_ == ServerRole::kPromoting
                ? "-READONLY Promotion in progress; the committed log tail "
                  "is still replaying.\r\n"
            : role_ == ServerRole::kFenced
                ? "-READONLY Fenced: this node lost its primary lease.\r\n"
                : "-READONLY You can't write against a read only replica.\r\n";
        c->QueueOutput(msg);
        continue;
      }
    } else if (failover_ != nullptr && !failover_->LeaseValidNow()) {
      // §4.2: a primary serves linearizable reads without a log round-trip
      // only while its lease is provably unexpired. With the horizon passed
      // (renewals stalled, or this process was frozen and resumed believing
      // it still holds the lease), a data read here could be stale the
      // moment a successor is granted the lease — refuse it. Writes stay
      // allowed: they are fenced by the conditional append chain itself.
      if (spec != nullptr && !spec->is_write && spec->first_key > 0) {
        c->QueueOutput(
            "-READONLY Lease expired; this node cannot serve linearizable "
            "reads until it renews.\r\n");
        continue;
      }
    }
    // The connection's place in the reply order: a reply can only be sent
    // directly if nothing older is still parked on this connection.
    const auto held_it = held_.find(c);
    const bool queue_behind =
        held_it != held_.end() && !held_it->second.empty();

    if (gate_ != nullptr && name == "WAIT") {
      // WAIT semantics over the remote log: by the time this reply is
      // released, every prior write of this connection has committed on a
      // majority of log replicas — report that quorum size (§3).
      encoded.clear();
      resp::Value::Integer(
          static_cast<int64_t>(gate_->replica_count() / 2 + 1))
          .EncodeTo(&encoded);
      const auto seq_it = conn_last_write_seq_.find(c);
      const uint64_t wait_seq =
          seq_it != conn_last_write_seq_.end() ? seq_it->second : 0;
      if (wait_seq > done_floor_ || queue_behind) {
        HeldReply h;
        h.seq = queue_behind ? std::max(wait_seq, held_it->second.back().seq)
                             : wait_seq;
        h.kind = HeldReply::Kind::kWait;
        h.encoded = encoded;
        Hold(c, std::move(h));
      } else {
        c->QueueOutput(encoded);
      }
      continue;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const resp::Value reply = engine_->Execute(spec, argv, &ctx);
    if (spec != nullptr) {
      Histogram*& h = latency_cache_[spec];
      if (h == nullptr) {
        h = metrics_.GetHistogram("cmd_latency_us", {{"cmd", spec->name}});
        h->set_scale(1000);  // fed in ns: a GET or SET takes under 1 µs
      }
      h->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    encoded.clear();
    reply.EncodeTo(&encoded);

    if (gate_ == nullptr) {
      // No transaction log attached; the effect stream is dropped and the
      // reply returns immediately (the pre-durable standalone server).
      c->QueueOutput(encoded);
    } else if (!ctx.effects.empty()) {
      // Durable write: append the effect batch to the remote log and park
      // the reply until a majority of AZ replicas persisted it (§3.1).
      const uint64_t receive_us = NowUs();
      const uint64_t trace_id =
          sampler_.Sample()
              ? MakeTraceId(config_.txlog_writer_id, next_trace_id_++)
              : 0;
      trace_.Record(trace_id, "cmd.receive", receive_us, c->id());
      const uint64_t seq = gate_->SubmitAppend(
          EncodeEffectBatch(server_info_.engine_version, ctx.effects),
          trace_id);
      const uint64_t submit_us = NowUs();
      trace_.Record(trace_id, "gate.submit", submit_us, seq);
      PendingWrite pw;
      pw.trace_id = trace_id;
      pw.receive_us = receive_us;
      pw.submit_us = submit_us;
      pw.argv = SlowlogArgv(argv);
      pending_writes_[seq] = std::move(pw);
      for (const std::string& key : ctx.dirty_keys) {
        key_hazards_[key] = seq;
      }
      conn_last_write_seq_[c] = seq;
      HeldReply h;
      h.seq = seq;
      h.kind = HeldReply::Kind::kWrite;
      h.encoded = encoded;
      Hold(c, std::move(h));
    } else {
      // Read (or effect-less write): §3.2 — the value may exist locally
      // but not yet be durable; park the reply behind the hazarding append
      // so no client observes a value that could still be lost.
      const uint64_t hazard = HazardFor(spec, argv);
      if (hazard > done_floor_ || queue_behind) {
        if (hazard > done_floor_) {
          // Attribute the read's wait to the hazarding write's trace: the
          // §3.2 consistency stall is part of that write's latency story.
          const auto hz = pending_writes_.find(hazard);
          if (hz != pending_writes_.end()) {
            trace_.Record(hz->second.trace_id, "hazard.defer", NowUs(),
                          c->id());
          }
        }
        HeldReply h;
        h.seq = queue_behind ? std::max(hazard, held_it->second.back().seq)
                             : hazard;
        h.kind = HeldReply::Kind::kRead;
        h.encoded = encoded;
        Hold(c, std::move(h));
      } else {
        c->QueueOutput(encoded);
      }
    }
    ctx.effects.clear();
    ctx.dirty_keys.clear();
    if (c->output_pending() > config_.output_hard_bytes) {
      break;  // hard limit: housekeeping evicts before any flush
    }
  }
  c->pending().clear();
}

void RespServer::ProcessLogCompletions(std::vector<Connection*>* released) {
  loop_affinity_.AssertHeldThread();
  if (gate_ == nullptr) return;
  const std::vector<RemoteLogGate::Completion> done =
      gate_->DrainCompletions();
  if (done.empty()) return;
  const uint64_t now_us = NowUs();
  for (const RemoteLogGate::Completion& comp : done) {
    done_floor_ = comp.seq;  // the gate completes appends in seq order
    if (migrator_ != nullptr &&
        migrator_->OnGateCompletion(comp.seq, comp.status.ok())) {
      continue;  // migration-internal append: no client reply parked on it
    }
    const auto pw = pending_writes_.find(comp.seq);
    if (pw != pending_writes_.end()) {
      trace_.Record(pw->second.trace_id,
                    comp.status.ok() ? "append.ack" : "append.fail", now_us,
                    comp.index);
      if (comp.status.ok()) {
        durable_ack_us_->Record(now_us - pw->second.submit_us);
      }
      // The entry stays until the reply releases: reply.release and the
      // SLOWLOG duration still need its stamps.
    }
    if (!comp.status.ok()) {
      failed_.insert(comp.seq);
      std::fprintf(stderr,
                   "memorydb-server: transaction log append %llu failed: %s\n",
                   static_cast<unsigned long long>(comp.seq),
                   comp.status.ToString().c_str());
    }
  }
  // Hazards at or below the floor are resolved.
  for (auto it = key_hazards_.begin(); it != key_hazards_.end();) {
    it = it->second <= done_floor_ ? key_hazards_.erase(it) : ++it;
  }
  // Release parked replies in per-connection order up to the floor.
  for (auto it = held_.begin(); it != held_.end();) {
    Connection* c = it->first;
    std::deque<HeldReply>& q = it->second;
    bool progressed = false;
    while (!q.empty() && q.front().seq <= done_floor_) {
      HeldReply h = std::move(q.front());
      q.pop_front();
      --held_count_;
      if (h.kind == HeldReply::Kind::kWrite && failed_.count(h.seq) > 0) {
        // The write is applied locally but not in the durable log: local
        // state has diverged. A production primary would demote and resync
        // from the log (§3.1); here the client learns its write was not
        // made durable and the connection is closed.
        c->QueueOutput("-ERR transaction log unavailable\r\n");
        c->set_state(Connection::State::kClosing);
        held_count_ -= q.size();
        q.clear();
      } else {
        c->QueueOutput(h.encoded);
        if (h.kind == HeldReply::Kind::kWrite) {
          const auto pw = pending_writes_.find(h.seq);
          if (pw != pending_writes_.end()) {
            const uint64_t release_us = NowUs();
            trace_.Record(pw->second.trace_id, "reply.release", release_us,
                          h.seq);
            const uint64_t duration_us = release_us - pw->second.receive_us;
            if (duration_us >= config_.slowlog_slower_than_us) {
              SlowlogEntry e;
              e.id = slowlog_next_id_++;
              e.unix_ts = NowMs() / 1000;
              e.duration_us = duration_us;
              e.argv = std::move(pw->second.argv);
              slowlog_.push_front(std::move(e));
              if (slowlog_.size() > config_.slowlog_max_len) {
                slowlog_.pop_back();
              }
            }
          }
        }
      }
      progressed = true;
    }
    if (progressed) released->push_back(c);
    it = q.empty() ? held_.erase(it) : ++it;
  }
  failed_.erase(failed_.begin(), failed_.upper_bound(done_floor_));
  // Writes at or below the floor have released (or failed) their replies.
  for (auto it = pending_writes_.begin(); it != pending_writes_.end();) {
    it = it->first <= done_floor_ ? pending_writes_.erase(it) : ++it;
  }
  held_atomic_.store(held_count_, std::memory_order_release);
}

void RespServer::DispatchBatch(const std::vector<Connection*>& readable,
                               uint64_t now_ms) {
  loop_affinity_.AssertHeldThread();
  size_t batch = 0;
  for (Connection* c : readable) {
    bytes_in_->Increment(c->TakeBytesIn());
    const size_t hwm = c->TakeMaxInputBuffered();
    if (hwm > input_hwm_cur_) input_hwm_cur_ = hwm;
    batch += c->pending().size();
  }
  if (batch > 0) batch_commands_->Record(static_cast<uint64_t>(batch));
  for (Connection* c : readable) {
    if (!c->pending().empty()) ExecutePending(c, now_ms);
    if (!c->protocol_error().empty() && !c->protocol_error_reported()) {
      c->QueueOutput("-ERR Protocol error: " + c->protocol_error() +
                     "\r\n");
      c->set_protocol_error_reported();
      c->set_state(Connection::State::kClosing);
      protocol_errors_->Increment();
    }
  }
}

void RespServer::Housekeeping(uint64_t now_ms) {
  loop_affinity_.AssertHeldThread();
  // Client-output-buffer limits, EPOLLOUT arming, and reaping. The scan
  // covers every connection because a stalled client never raises another
  // readiness event on its own.
  std::vector<Connection*> doomed;
  for (auto& [raw, owned] : connections_) {
    Connection* c = raw;
    if (c->state() == Connection::State::kClosed) {
      doomed.push_back(c);
      continue;
    }
    const size_t out = c->output_pending();
    if (out > config_.output_hard_bytes ||
        c->input_buffered() > config_.input_hard_bytes) {
      evicted_->Increment();
      doomed.push_back(c);
      continue;
    }
    if (out > config_.output_soft_bytes) {
      if (c->soft_over_since_ms == 0) {
        c->soft_over_since_ms = now_ms;
      } else if (now_ms - c->soft_over_since_ms >= config_.output_soft_ms) {
        evicted_->Increment();
        doomed.push_back(c);
        continue;
      }
    } else {
      c->soft_over_since_ms = 0;
    }
    // A connection with parked replies is not idle: keep it open until the
    // log catches up, even if nothing is buffered for output yet.
    const bool parked = held_.count(c) > 0;
    if (c->peer_closed() && out == 0) {
      doomed.push_back(c);
      continue;
    }
    if (c->state() == Connection::State::kClosing && out == 0 && !parked) {
      doomed.push_back(c);
      continue;
    }
    const bool want = out > 0;
    if (want != c->want_write) {
      c->want_write = want;
      Status mod = loop_.Modify(
          c->fd(), want ? (kReadable | kWritable) : kReadable, c);
      if (!mod.ok()) {
        // The kernel's interest set no longer matches want_write; this
        // connection would never see another EPOLLOUT and its output would
        // stall forever. Drop it instead of serving a wedged client.
        doomed.push_back(c);
      }
    }
  }
  for (Connection* c : doomed) CloseConnection(c);

  // client_recent_max_input_buffer: max over the current and previous
  // windows, so the gauge reflects "recent" peaks rather than all-time.
  if (now_ms - input_hwm_window_start_ms_ >= kInputHwmWindowMs) {
    input_hwm_prev_ = input_hwm_cur_;
    input_hwm_cur_ = 0;
    input_hwm_window_start_ms_ = now_ms;
  }
  recent_max_input_->Set(static_cast<int64_t>(
      input_hwm_cur_ > input_hwm_prev_ ? input_hwm_cur_ : input_hwm_prev_));
  // Clients whose replies are parked behind the durability gate (§3.2).
  blocked_clients_->Set(static_cast<int64_t>(held_.size()));

  // Replicas never expire keys themselves; they apply the primary's DEL
  // effects from the log (§2.1), keeping both sides bit-identical. Same
  // for promoting/fenced nodes: only the serving primary expires.
  if (role_ == ServerRole::kPrimary &&
      now_ms - last_expire_ms_ >= kExpireEveryMs) {
    last_expire_ms_ = now_ms;
    engine::ExecContext ctx;
    ctx.now_ms = now_ms;
    ctx.role = engine::Role::kPrimary;
    ctx.rng = &engine_->rng();
    engine_->ActiveExpire(&ctx, kExpirePerCycle);
    if (gate_ != nullptr && !ctx.effects.empty()) {
      // The cycle's DELs are themselves a logged write (§2.1): replicas
      // never self-expire, so without this append a log-fed replica or a
      // --restore node would keep every actively-expired key forever. No
      // reply is parked on it and no key hazard is taken — unlike an
      // unacknowledged SET, absence is reproducible from time alone.
      gate_->SubmitAppend(
          EncodeEffectBatch(server_info_.engine_version, ctx.effects),
          /*trace_id=*/0);
    }
  }
}

void RespServer::CloseConnection(Connection* c) {
  loop_affinity_.AssertHeldThread();
  const auto held_it = held_.find(c);
  if (held_it != held_.end()) {
    held_count_ -= held_it->second.size();
    held_.erase(held_it);
    held_atomic_.store(held_count_, std::memory_order_release);
  }
  conn_last_write_seq_.erase(c);
  loop_.Remove(c->fd());
  c->Close();
  connections_.erase(c);
  closed_->Increment();
  connected_clients_->Set(static_cast<int64_t>(connections_.size()));
}

void RespServer::LoopMain() {
  loop_affinity_.BindToCurrentThread();
  std::vector<Event> events;
  std::vector<Connection*> readable;
  std::vector<Connection*> flushable;
  std::vector<Connection*> released;
  std::unordered_set<Connection*> newly_flushable;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // A pending replay backlog means more work is already here: poll
    // without sleeping so the next chunk applies immediately.
    loop_.Poll(follower_backlog_.empty() ? config_.loop_timeout_ms : 0,
               &events);
    if (stop_requested_.load(std::memory_order_acquire)) break;

    readable.clear();
    flushable.clear();
    released.clear();
    newly_flushable.clear();
    bool accept_ready = false;
    for (const Event& ev : events) {
      if (ev.tag == &listener_) {
        accept_ready = true;
        continue;
      }
      Connection* c = static_cast<Connection*>(ev.tag);
      // kClosed surfaces through read() on the next drain; treat as read-
      // ready so the hangup is observed promptly.
      if (ev.events & (kReadable | kClosed)) readable.push_back(c);
      if (ev.events & kWritable) flushable.push_back(c);
    }
    events.clear();
    if (accept_ready) AcceptPending();

    // Stage 1 (io threads): drain sockets and decode commands.
    pool_->Run(readable.size(),
               [&](size_t i) { readable[i]->ReadAndParse(); });

    // Stage 2 (loop thread): replica mode first applies committed log
    // entries the follower fetched, so this cycle's reads see them; then
    // one batched dispatch into the engine.
    const uint64_t now_ms = NowMs();
    ApplyFollowerEntries(now_ms);
    MaintainFailover(now_ms);
    DispatchBatch(readable, now_ms);

    // Stage 3 (loop thread): release replies whose log appends committed.
    ProcessLogCompletions(&released);
    if (migrator_ != nullptr && migrator_->active()) {
      migrator_->Pump();
      RefreshClusterGauges();
    }

    // Stage 4 (io threads): flush whatever has output. Readable conns may
    // have just produced replies, released conns just gained them, and
    // EPOLLOUT-ready conns have leftovers. A connection must be flushed by
    // exactly one io thread, hence the dedup set (EPOLLOUT conns have
    // want_write set, so the !want_write check already excludes them).
    const auto consider = [&](Connection* c) {
      if (c->output_pending() > 0 &&
          c->output_pending() <= config_.output_hard_bytes &&
          !c->want_write && newly_flushable.insert(c).second) {
        flushable.push_back(c);
      }
    };
    for (Connection* c : readable) consider(c);
    for (Connection* c : released) consider(c);
    pool_->Run(flushable.size(),
               [&](size_t i) { flushable[i]->FlushWrites(); });
    for (Connection* c : flushable) {
      bytes_out_->Increment(c->TakeBytesOut());
    }

    Housekeeping(now_ms);
  }
}

std::string RespServer::TraceProcLabel() const {
  if (!config_.trace_proc.empty()) return config_.trace_proc;
  return role_ == ServerRole::kReplica || role_ == ServerRole::kPromoting
             ? "replica"
             : "server";
}

void RespServer::HandleTraceCommand(Connection* c,
                                    const std::vector<std::string>& argv) {
  loop_affinity_.AssertHeldThread();
  const std::string sub =
      argv.size() > 1 ? engine::Engine::Upper(argv[1]) : std::string();
  std::string encoded;
  if (sub == "DUMP" && argv.size() == 2) {
    // One JSONL line per span, same format as the --trace-file export, so
    // live scrapes and post-shutdown files merge interchangeably.
    resp::Value::Bulk(ExportSpansJsonl(trace_, TraceProcLabel()))
        .EncodeTo(&encoded);
  } else if (sub == "RESET" && argv.size() == 2) {
    trace_.Clear();
    encoded = "+OK\r\n";
  } else {
    encoded = "-ERR unknown TRACE subcommand; try TRACE DUMP | TRACE RESET\r\n";
  }
  c->QueueOutput(encoded);
}

void RespServer::HandleSlowlogCommand(Connection* c,
                                      const std::vector<std::string>& argv) {
  loop_affinity_.AssertHeldThread();
  const std::string sub =
      argv.size() > 1 ? engine::Engine::Upper(argv[1]) : std::string();
  std::string encoded;
  if (sub == "GET" && argv.size() <= 3) {
    size_t limit = 10;  // Redis default
    if (argv.size() == 3) {
      char* end = nullptr;
      const long long v = std::strtoll(argv[2].c_str(), &end, 10);
      if (end == argv[2].c_str() || *end != '\0') {
        c->QueueOutput("-ERR value is not an integer or out of range\r\n");
        return;
      }
      limit = v < 0 ? slowlog_.size() : static_cast<size_t>(v);
    }
    std::vector<resp::Value> entries;
    for (const SlowlogEntry& e : slowlog_) {
      if (entries.size() >= limit) break;
      std::vector<resp::Value> fields;
      fields.push_back(resp::Value::Integer(static_cast<int64_t>(e.id)));
      fields.push_back(resp::Value::Integer(static_cast<int64_t>(e.unix_ts)));
      fields.push_back(
          resp::Value::Integer(static_cast<int64_t>(e.duration_us)));
      std::vector<resp::Value> args;
      args.reserve(e.argv.size());
      for (const std::string& a : e.argv) args.push_back(resp::Value::Bulk(a));
      fields.push_back(resp::Value::Array(std::move(args)));
      entries.push_back(resp::Value::Array(std::move(fields)));
    }
    resp::Value::Array(std::move(entries)).EncodeTo(&encoded);
  } else if (sub == "LEN" && argv.size() == 2) {
    resp::Value::Integer(static_cast<int64_t>(slowlog_.size()))
        .EncodeTo(&encoded);
  } else if (sub == "RESET" && argv.size() == 2) {
    slowlog_.clear();
    encoded = "+OK\r\n";
  } else {
    encoded =
        "-ERR unknown SLOWLOG subcommand; try SLOWLOG GET [count] | "
        "SLOWLOG LEN | SLOWLOG RESET\r\n";
  }
  c->QueueOutput(encoded);
}

bool RespServer::RouteClusterCommand(Connection* c,
                                     const engine::CommandSpec* spec,
                                     const std::vector<std::string>& argv,
                                     bool asking) {
  loop_affinity_.AssertHeldThread();
  if (spec == nullptr || spec->first_key <= 0) return false;  // keyless
  const std::vector<std::string> keys =
      engine::Engine::CommandKeys(*spec, argv);
  if (keys.empty()) return false;
  const uint16_t slot = KeyHashSlot(Slice(keys[0]));
  for (size_t i = 1; i < keys.size(); ++i) {
    if (KeyHashSlot(Slice(keys[i])) != slot) {
      c->QueueOutput(
          "-CROSSSLOT Keys in request don't hash to the same slot\r\n");
      return true;
    }
  }
  const shard::SlotTable::Entry& entry = slot_table_->at(slot);
  switch (entry.state) {
    case shard::SlotState::kOwned:
      return false;
    case shard::SlotState::kRemote:
      c->QueueOutput("-" + slot_table_->MovedError(slot) + "\r\n");
      cluster_redirects_total_->Increment();
      cluster_redirects_moved_->Increment();
      return true;
    case shard::SlotState::kImporting:
      // Only ASKING-prefixed commands may touch an importing slot before
      // the owner commits the flip; everyone else is pointed at the owner.
      if (asking) return false;
      c->QueueOutput("-" + slot_table_->MovedError(slot) + "\r\n");
      cluster_redirects_total_->Increment();
      cluster_redirects_moved_->Increment();
      return true;
    case shard::SlotState::kMigrating: {
      const uint64_t now_ms = NowMs();
      size_t present = 0;
      bool in_flight = false;
      for (const std::string& k : keys) {
        if (migrator_ != nullptr && migrator_->KeyInFlight(k)) {
          in_flight = true;
        }
        if (engine_->keyspace().Find(k, now_ms) != nullptr) ++present;
      }
      if (in_flight && spec->is_write) {
        // The value is mid-transfer: a local write would be shadowed the
        // moment the streamed copy lands on the target.
        c->QueueOutput(
            "-TRYAGAIN Key is being migrated; retry the command\r\n");
        return true;
      }
      if (present == keys.size()) return false;  // still fully local
      if (present == 0) {
        c->QueueOutput("-" + slot_table_->AskError(slot) + "\r\n");
        cluster_redirects_total_->Increment();
        cluster_redirects_ask_->Increment();
        return true;
      }
      c->QueueOutput(
          "-TRYAGAIN Keys straddle a migrating slot; retry the command\r\n");
      return true;
    }
  }
  return false;
}

void RespServer::HandleClusterCommand(Connection* c,
                                      const std::vector<std::string>& argv) {
  loop_affinity_.AssertHeldThread();
  if (slot_table_ == nullptr) {
    c->QueueOutput("-ERR This instance has cluster support disabled\r\n");
    return;
  }
  const auto parse_slot = [](const std::string& s, uint16_t* out) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' ||
        v >= static_cast<unsigned long>(kNumSlots)) {
      return false;
    }
    *out = static_cast<uint16_t>(v);
    return true;
  };
  const std::string sub =
      argv.size() > 1 ? engine::Engine::Upper(argv[1]) : std::string();
  std::string encoded;
  uint16_t slot = 0;
  if (sub == "MYID" && argv.size() == 2) {
    resp::Value::Bulk(slot_table_->self_shard()).EncodeTo(&encoded);
  } else if (sub == "SLOTS" && argv.size() == 2) {
    slot_table_->SlotsReply().EncodeTo(&encoded);
  } else if (sub == "SHARDS" && argv.size() == 2) {
    slot_table_->ShardsReply().EncodeTo(&encoded);
  } else if (sub == "KEYSLOT" && argv.size() == 3) {
    resp::Value::Integer(KeyHashSlot(Slice(argv[2]))).EncodeTo(&encoded);
  } else if ((sub == "COUNTKEYSINSLOT" || sub == "GETKEYSINSLOT") &&
             argv.size() >= 3) {
    if (!parse_slot(argv[2], &slot)) {
      encoded = "-ERR Invalid slot\r\n";
    } else if (sub == "COUNTKEYSINSLOT" && argv.size() == 3) {
      resp::Value::Integer(static_cast<int64_t>(
                               engine_->keyspace().KeysInSlot(slot).size()))
          .EncodeTo(&encoded);
    } else if (sub == "GETKEYSINSLOT" && argv.size() == 4) {
      char* end = nullptr;
      const unsigned long count = std::strtoul(argv[3].c_str(), &end, 10);
      std::vector<resp::Value> out;
      for (const std::string& k : engine_->keyspace().KeysInSlot(slot)) {
        if (out.size() >= count) break;
        out.push_back(resp::Value::Bulk(k));
      }
      resp::Value::Array(std::move(out)).EncodeTo(&encoded);
    } else {
      encoded = "-ERR wrong number of arguments\r\n";
    }
  } else if (sub == "SETSLOT" && argv.size() >= 4) {
    if (!parse_slot(argv[2], &slot)) {
      c->QueueOutput("-ERR Invalid slot\r\n");
      return;
    }
    const std::string op = engine::Engine::Upper(argv[3]);
    if (op == "IMPORTING" && argv.size() == 6) {
      // Handshake from the migrating owner: argv[4]=its shard, [5]=endpoint.
      if (slot_table_->BeginImporting(slot, argv[4], argv[5])) {
        encoded = "+OK\r\n";
      } else {
        encoded = "-ERR slot " + std::to_string(slot) +
                  " is already served by this shard\r\n";
      }
    } else if (op == "MIGRATE" && argv.size() == 6) {
      // Admin trigger: stream the slot to shard argv[4] at argv[5] and
      // commit the flip through the fenced log. Runs asynchronously; +OK
      // means the migration started, progress is visible in INFO # Cluster.
      if (role_ != ServerRole::kPrimary) {
        encoded = "-ERR only the serving primary can migrate a slot\r\n";
      } else {
        const Status st = migrator_->StartMigration(slot, argv[4], argv[5]);
        encoded = st.ok() ? "+OK\r\n" : "-ERR " + st.ToString() + "\r\n";
      }
    } else if (op == "NODE" && (argv.size() == 6 || argv.size() == 7)) {
      uint64_t epoch = slot_table_->at(slot).epoch + 1;
      if (argv.size() == 7) {
        char* end = nullptr;
        epoch = std::strtoull(argv[6].c_str(), &end, 10);
      }
      if (argv[4] == slot_table_->self_shard()) {
        // The owner committed the flip to us: IMPORTING -> OWNED. Publish
        // the flip to our own shard's log too, so our replicas (and a
        // restarted us) learn it.
        if (slot_table_->CommitMigrationIn(slot, epoch)) {
          MigrationSubmitOwnership(slot, epoch, slot_table_->self_shard(),
                                   slot_table_->self_endpoint());
          encoded = "+OK\r\n";
        } else if (slot_table_->at(slot).state == shard::SlotState::kOwned) {
          encoded = "+OK\r\n";  // retried notification; already ours
        } else {
          encoded = "-ERR slot " + std::to_string(slot) +
                    " is not importing here\r\n";
        }
      } else {
        slot_table_->SetRemote(slot, argv[4], argv[5]);
        encoded = "+OK\r\n";
      }
    } else if (op == "STABLE" && argv.size() == 4) {
      encoded = slot_table_->CancelMigration(slot)
                    ? "+OK\r\n"
                    : "-ERR slot is not migrating or importing\r\n";
    } else {
      encoded =
          "-ERR unknown SETSLOT form; try IMPORTING <shard> <endpoint> | "
          "MIGRATE <shard> <endpoint> | NODE <shard> <endpoint> [epoch] | "
          "STABLE\r\n";
    }
    RefreshClusterGauges();
  } else {
    encoded =
        "-ERR unknown CLUSTER subcommand; try SLOTS | SHARDS | MYID | "
        "KEYSLOT | COUNTKEYSINSLOT | GETKEYSINSLOT | SETSLOT\r\n";
  }
  c->QueueOutput(encoded);
}

void RespServer::RefreshClusterGauges() {
  loop_affinity_.AssertHeldThread();
  if (slot_table_ == nullptr) return;
  size_t owned = 0, migrating = 0, importing = 0;
  for (int s = 0; s < kNumSlots; ++s) {
    switch (slot_table_->at(static_cast<uint16_t>(s)).state) {
      case shard::SlotState::kOwned: ++owned; break;
      case shard::SlotState::kMigrating: ++migrating; break;
      case shard::SlotState::kImporting: ++importing; break;
      case shard::SlotState::kRemote: break;
    }
  }
  // A migrating slot is still served here until the flip commits.
  cluster_slots_owned_->Set(static_cast<int64_t>(owned + migrating));
  cluster_slots_migrating_->Set(static_cast<int64_t>(migrating));
  cluster_slots_importing_->Set(static_cast<int64_t>(importing));
}

std::vector<std::string> RespServer::MigrationKeys(uint16_t slot,
                                                   size_t max) {
  loop_affinity_.AssertHeldThread();
  std::vector<std::string> out;
  const uint64_t now_ms = NowMs();
  for (const std::string& key : engine_->keyspace().KeysInSlot(slot)) {
    if (out.size() >= max) break;
    if (engine_->keyspace().Find(key, now_ms) != nullptr) {
      out.push_back(key);
    }
  }
  return out;
}

bool RespServer::MigrationDump(const std::string& key, uint64_t* expire_at_ms,
                               std::string* blob) {
  loop_affinity_.AssertHeldThread();
  const engine::Keyspace::Entry* e = engine_->keyspace().Find(key, NowMs());
  if (e == nullptr) return false;
  *expire_at_ms = e->expire_at_ms;
  blob->clear();
  engine::SerializeValue(e->value, blob);
  PutFixed64(blob, Crc64(0, blob->data(), blob->size()));
  return true;
}

uint64_t RespServer::MigrationDelete(const std::vector<std::string>& keys) {
  loop_affinity_.AssertHeldThread();
  engine::Argv del;
  del.reserve(keys.size() + 1);
  del.push_back("DEL");
  for (const std::string& k : keys) del.push_back(k);
  engine_->Apply(del, NowMs());
  if (gate_ == nullptr) return 0;
  // Replicates like any write; no client reply is parked on it, and no key
  // hazard is needed — once the key is locally absent, the migrating slot
  // answers -ASK and the target (which holds the durable copy) serves it.
  const std::vector<engine::Argv> effects{del};
  return gate_->SubmitAppend(
      EncodeEffectBatch(server_info_.engine_version, effects),
      /*trace_id=*/0);
}

uint64_t RespServer::MigrationSubmitOwnership(uint16_t slot, uint64_t epoch,
                                              const std::string& to_shard,
                                              const std::string& to_endpoint) {
  loop_affinity_.AssertHeldThread();
  if (gate_ == nullptr) return 0;
  shard::SlotOwnershipRecord rec;
  rec.slot = slot;
  rec.epoch = epoch;
  rec.from_shard = config_.shard_id;
  rec.to_shard = to_shard;
  rec.to_endpoint = to_endpoint;
  // The fencing argument (§5, same shape as DESIGN.md §11): this append is
  // conditional on the chain position of a gate that fences on any foreign
  // record. If this node lost its lease, the append fails and the flip
  // never commits — a stale owner can neither serve the slot nor give it
  // away.
  return gate_->SubmitTyped(txlog::RecordType::kSlotOwnership, rec.Encode(),
                            /*trace_id=*/0);
}

}  // namespace memdb::net
