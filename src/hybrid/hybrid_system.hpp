// The hybrid peer-to-peer system (Section 3) -- the paper's primary
// contribution.
//
// A structured ring of t-peers (the t-network) partitions the data-id space
// into segments; each t-peer roots one unstructured s-network of s-peers.
// Stores and lookups are served by the local s-network when the key falls in
// the local segment and otherwise travel up the tree, around the ring, and
// down into the responsible s-network.
//
// Everything is message-driven over proto::OverlayNetwork: joins, the
// concurrent join/leave triangles of Fig. 2, both data-placement schemes,
// TTL-bounded flooding, HELLO/ack failure detection, server-arbitrated crash
// replacement, bypass links, and the Section 5 enhancements.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chord/finger_table.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "hybrid/params.hpp"
#include "proto/data_store.hpp"
#include "proto/metrics.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace hp2p::hybrid {

/// The full hybrid system inside one simulation replica, including the
/// well-known bootstrap server (modeled as a host so that contacting it
/// costs real latency).
class HybridSystem {
 public:
  using JoinCallback = std::function<void(proto::JoinResult)>;
  using LookupCallback = std::function<void(proto::LookupResult)>;
  using StoreCallback = std::function<void()>;

  /// `server_host` is where the well-known server lives.
  HybridSystem(proto::OverlayNetwork& network, HybridParams params,
               HostIndex server_host, Rng& rng);

  // --- Membership ------------------------------------------------------------

  /// A new peer contacts the server, which picks its role with probability
  /// p_s and runs the matching join protocol.  `done` fires once the peer
  /// is fully inserted.
  PeerIndex add_peer(HostIndex host, JoinCallback done = {});

  /// Same, but the role is forced (benches use this for exact p_s ratios).
  PeerIndex add_peer_with_role(HostIndex host, Role role,
                               JoinCallback done = {});

  /// Same, with a forced interest category (Section 5.3 workloads).
  PeerIndex add_peer_with_interest(HostIndex host, Role role,
                                   std::uint32_t interest,
                                   JoinCallback done = {});

  /// Graceful departure (Section 3.2): a leaving t-peer promotes an s-peer
  /// from its own s-network (or truly leaves the ring when it has none); a
  /// leaving s-peer hands its load to a neighbour and its orphans rejoin.
  void leave(PeerIndex peer);

  /// Abrupt departure: the peer silently stops.  Its data is lost; HELLO
  /// timeouts and the server-arbitrated replacement repair the topology
  /// when failure detection is running.
  void crash(PeerIndex peer);

  /// Starts HELLO heartbeats and timeout scanning on all live peers
  /// (required for crash *recovery*; crashes without it just lose data).
  void start_failure_detection();

  // --- Data operations --------------------------------------------------------

  /// store(key, value): hashes the key and inserts the item (Section 3.4).
  void store(PeerIndex from, const std::string& key, std::uint64_t value,
             StoreCallback done = {});

  /// Direct-id variant used by workload generators that control placement.
  void store_id(PeerIndex from, DataId id, const std::string& key,
                std::uint64_t value, StoreCallback done = {});

  /// lookup(key): local s-network first, then the t-network (Section 3.4).
  /// `done` always fires: success, or failure after lookup_timeout.
  void lookup(PeerIndex from, const std::string& key, LookupCallback done);

  /// Direct-id variant.
  void lookup_id(PeerIndex from, DataId id, LookupCallback done);

  /// Result of a partial/keyword search (Section 5.3): keys matching a
  /// substring within the requester's own s-network.
  struct KeywordResult {
    std::vector<std::string> keys;
    std::uint32_t peers_contacted = 0;
  };
  using KeywordCallback = std::function<void(KeywordResult)>;

  /// Floods a substring query through the local s-network and collects all
  /// matches that arrive before `collect_window` elapses.  This is the
  /// paper's "partial search ... conducted in the corresponding s-network".
  void lookup_keyword(PeerIndex from, const std::string& substring,
                      sim::Duration collect_window, KeywordCallback done);

  /// System-wide complex lookup (Section 3.1): "the query message is first
  /// flooded within the same s-network; in the meanwhile, it is forwarded
  /// to other s-networks through the t-network."  The query circulates the
  /// whole ring, every t-peer floods its own s-network, and all matches
  /// stream back to the requester until the window closes.
  void lookup_keyword_global(PeerIndex from, const std::string& substring,
                             sim::Duration collect_window,
                             KeywordCallback done);

  // --- Introspection -----------------------------------------------------------

  [[nodiscard]] Role role_of(PeerIndex p) const { return peer(p).role; }
  [[nodiscard]] PeerId pid_of(PeerIndex p) const { return peer(p).pid; }
  [[nodiscard]] bool is_joined(PeerIndex p) const { return peer(p).joined; }
  [[nodiscard]] bool is_alive(PeerIndex p) const { return net_.alive(p); }
  [[nodiscard]] std::uint32_t interest_of(PeerIndex p) const {
    return peer(p).interest;
  }
  [[nodiscard]] PeerIndex tpeer_of(PeerIndex p) const { return peer(p).tpeer; }
  [[nodiscard]] PeerIndex parent_of(PeerIndex p) const { return peer(p).cp; }
  [[nodiscard]] PeerIndex successor_of(PeerIndex p) const {
    return peer(p).successor;
  }
  [[nodiscard]] PeerId successor_id_of(PeerIndex p) const {
    return peer(p).successor_id;
  }
  [[nodiscard]] PeerIndex predecessor_of(PeerIndex p) const {
    return peer(p).predecessor;
  }
  [[nodiscard]] PeerId predecessor_id_of(PeerIndex p) const {
    return peer(p).predecessor_id;
  }
  [[nodiscard]] const chord::FingerTable& fingers_of(PeerIndex p) const {
    return peer(p).fingers;
  }
  /// Mid-join / mid-leave flags (Section 3.3 mutexes).  The auditor uses
  /// them to tell transient protocol states from genuine corruption.
  [[nodiscard]] bool is_joining(PeerIndex p) const {
    return peer(p).joining_mutex;
  }
  [[nodiscard]] bool is_leaving(PeerIndex p) const {
    return peer(p).leaving_mutex;
  }
  [[nodiscard]] bool is_server_peer(PeerIndex p) const {
    return peer(p).is_server;
  }
  /// Server-side ring registry (pid -> t-peer), the ground truth for
  /// segment-responsibility checks.
  [[nodiscard]] const std::map<std::uint64_t, PeerIndex>& registry() const {
    return registry_;
  }
  [[nodiscard]] const std::vector<PeerIndex>& children_of(PeerIndex p) const {
    return peer(p).children;
  }
  [[nodiscard]] const proto::DataStore& store_of(PeerIndex p) const {
    return peer(p).store;
  }
  [[nodiscard]] std::size_t num_peers() const { return peers_.size(); }
  [[nodiscard]] std::size_t num_tpeers() const;
  [[nodiscard]] std::size_t num_speers() const;

  /// Segment (pred_pid, pid] served by the s-network of t-peer `t`.
  [[nodiscard]] std::pair<PeerId, PeerId> segment_of(PeerIndex t) const;

  /// Live members of the s-network rooted at t-peer `t` (incl. the t-peer).
  [[nodiscard]] std::vector<PeerIndex> snetwork_members(PeerIndex t) const;

  /// Ring invariant: successor/predecessor pointers form one cycle over all
  /// joined t-peers, ids strictly increasing around the cycle.
  [[nodiscard]] bool verify_ring() const;

  /// Tree invariants: every joined s-peer's cp chain reaches its t-peer and
  /// parent/child pointers agree.  (The degree cap is enforced at admission
  /// but may be legitimately exceeded after a promotion absorbs the old
  /// root's children, so it is asserted by tests on churn-free builds
  /// rather than here.)
  [[nodiscard]] bool verify_trees() const;

  /// Total stored items across live peers.
  [[nodiscard]] std::size_t total_items() const;

  /// Items-per-peer across live joined peers (Fig. 4 raw data).
  [[nodiscard]] std::vector<std::size_t> items_per_peer() const;

  /// Live joined peers (for workload generators to draw from), in peer-index
  /// order.  Served from a cache invalidated on membership/liveness changes:
  /// workload generators call this per operation, and the O(N) rebuild per
  /// op dominated whole runs past ~20k peers.  The reference is valid until
  /// the next membership change.
  [[nodiscard]] const std::vector<PeerIndex>& live_peers() const;

  /// Number of bypass links currently installed system-wide.
  [[nodiscard]] std::size_t num_bypass_links() const;

  /// Lifetime counters for the Section 5.4 mechanism.
  [[nodiscard]] std::uint64_t bypass_installs() const {
    return bypass_installs_;
  }
  [[nodiscard]] std::uint64_t bypass_uses() const { return bypass_uses_; }

  /// How many lookups each peer has answered (from store or cache); the
  /// load metric of the Section 7 caching scheme.
  [[nodiscard]] std::uint64_t answers_served(PeerIndex p) const {
    return peer(p).answers_served;
  }
  /// Largest per-peer answer count (the "overwhelmed host" indicator).
  [[nodiscard]] std::uint64_t max_answers_served() const;
  /// Lookups answered from a cache rather than the authoritative store.
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }

  /// T-peer responsible for a data id (server-registry view).
  [[nodiscard]] PeerIndex owner_tpeer(DataId id) const {
    return registry_owner(id.value());
  }

  /// Holders the tracker at `t` has indexed for `id` (BitTorrent-style
  /// s-networks; empty otherwise).  The chaos oracle uses this to decide
  /// whether a tracker-mode lookup MUST succeed.
  [[nodiscard]] std::vector<PeerIndex> tracker_holders(PeerIndex t,
                                                       DataId id) const;

  // --- Data durability (segment-local replication) ------------------------------

  /// Deterministic replica set for `id`: the owning t-peer first, then up to
  /// replication_factor - 1 live members of its s-network ranked by a
  /// per-id hash, then the successor t-peer as a fallback when the s-network
  /// is too small.  Depends only on the current overlay state, never on rng.
  [[nodiscard]] std::vector<PeerIndex> replica_set(DataId id) const;

  /// Replica copies pushed when a primary item lands in its home segment.
  [[nodiscard]] std::uint64_t replica_pushes() const {
    return replica_pushes_;
  }
  /// Copies re-pushed by anti-entropy sweeps / churn-triggered repair.
  [[nodiscard]] std::uint64_t re_replication_pushes() const {
    return re_replication_pushes_;
  }
  /// Sweep-pushed copies that actually filled a hole at the receiver.
  [[nodiscard]] std::uint64_t anti_entropy_repairs() const {
    return anti_entropy_repairs_;
  }
  /// Primary copies restored at the owner after a lookup was answered from
  /// a non-primary replica.
  [[nodiscard]] std::uint64_t read_repairs() const { return read_repairs_; }

  /// Bulk-refreshes every t-peer's finger table from the server registry.
  /// Stand-in for Chord's background fix_fingers: the hybrid paper keeps
  /// finger maintenance out of scope (substitution updates aside), so
  /// benches call this once after the build phase when t_routing==kFinger.
  void refresh_all_fingers();

  [[nodiscard]] const HybridParams& params() const { return params_; }

  /// Installs (or, with nullptr, removes) the span recorder.  Every store
  /// and lookup then records a span tree: a root span, one child per
  /// protocol stage (cp-chain climb, ring routing, s-network flood, reply),
  /// and instant events per hop.  Not owned.
  void set_tracer(stats::SpanRecorder* tracer) { tracer_ = tracer; }
  [[nodiscard]] stats::SpanRecorder* tracer() const { return tracer_; }

  /// Lookups currently in flight (issued, neither answered nor timed out).
  [[nodiscard]] std::size_t pending_lookups() const { return queries_.size(); }

  /// Called with (peer, ttl) each time a flood/walk wave starts at `peer`
  /// with `ttl` hops left.  The auditor uses it to bound in-flight TTLs.
  using FloodObserver = std::function<void(PeerIndex, unsigned)>;
  void set_flood_observer(FloodObserver fn) { flood_observer_ = std::move(fn); }

 private:
  /// Test-only white-box corruption hooks (src/audit/fault_inject.hpp).
  friend struct FaultInjector;

  // --- Internal state ---------------------------------------------------------

  struct BypassLink {
    PeerIndex to = kNoPeer;
    PeerId segment_lo{};  // predecessor pid of the remote t-peer
    PeerId segment_hi{};  // pid of the remote t-peer
    sim::SimTime expires{};
  };

  /// A queued t-peer join request (Section 3.3 serialization).
  struct PendingJoin {
    PeerIndex joiner = kNoPeer;
    std::uint32_t hops = 0;
    sim::SimTime started{};
    JoinCallback done;
  };

  struct Peer {
    PeerIndex self = kNoPeer;
    HostIndex host = kNoHost;
    Role role = Role::kSPeer;
    PeerId pid{};
    std::uint32_t interest = 0;
    bool joined = false;

    // T-peer ring state.
    PeerIndex successor = kNoPeer;
    PeerId successor_id{};
    PeerIndex predecessor = kNoPeer;
    PeerId predecessor_id{};
    chord::FingerTable fingers;
    // Concurrency control of Section 3.3.
    bool joining_mutex = false;
    bool leaving_mutex = false;
    std::deque<PendingJoin> pending_joins;
    bool is_server = false;

    // S-network membership (t-peers are tree roots; cp == kNoPeer).
    PeerIndex tpeer = kNoPeer;  // root of my s-network (self for t-peers)
    PeerIndex cp = kNoPeer;     // connect point (tree parent)
    std::vector<PeerIndex> children;
    std::vector<PeerIndex> mesh_links;  // kMesh style extra links
    std::vector<BypassLink> bypass;

    proto::DataStore store;
    // BitTorrent style: tracker index at the t-peer (d_id -> holders, in
    // announce order).  Multiple holders per id is what makes multi-peer
    // swarm downloads work: the tracker hands the query to every announced
    // holder and the first live one answers.  Ordered map: the promotion
    // and pruning paths iterate it, and iteration feeds message emission.
    std::map<DataId, std::vector<PeerIndex>> tracker_index;
    // Section 7 caching scheme: recently fetched items.  The map gives O(1)
    // hits on the lookup fast path; the deque preserves FIFO eviction order
    // (each cached id appears in it exactly once).
    struct CacheEntry {
      proto::DataItem item;
      sim::SimTime expires{};
    };
    std::unordered_map<DataId, CacheEntry> cache;
    std::deque<DataId> cache_fifo;  // oldest first
    std::uint64_t answers_served = 0;

    // Failure-detection bookkeeping.
    std::unordered_map<std::uint32_t, sim::SimTime> last_heard;  // by peer idx
    std::unordered_map<std::uint32_t, sim::SimTime> last_sent;
    bool heartbeat_running = false;
    /// Last time this orphaned s-peer asked to rejoin a tree; throttles the
    /// heartbeat-driven re-attach retry to one request per hello_timeout.
    sim::SimTime last_rejoin_attempt{};
    /// Last anti-entropy sweep started by this t-peer (replication only).
    sim::SimTime last_sweep{};
  };

  struct Query {
    PeerIndex origin = kNoPeer;
    DataId target{};
    sim::SimTime started{};
    std::uint32_t contacted = 0;
    bool finished = false;
    bool reflooded = false;
    bool rerouted = false;
    sim::TimerId timer{};
    LookupCallback done;
    std::unordered_set<std::uint32_t> visited;  // flood dedup + contacted
    stats::TraceContext trace;  // root span of the lookup (when traced)
    stats::TraceContext stage;  // currently open stage span (climb/ring/...)
  };

  Peer& peer(PeerIndex i) { return peers_[i.value()]; }
  [[nodiscard]] const Peer& peer(PeerIndex i) const {
    return peers_[i.value()];
  }

  // --- Server logic (runs at server_) -----------------------------------------

  [[nodiscard]] Role server_pick_role();
  [[nodiscard]] PeerId server_generate_pid();
  /// Picks the s-network for a joining s-peer: interest match, landmark
  /// cluster, or smallest size (Section 3.2.2 / 5.2 / 5.3).
  [[nodiscard]] PeerIndex server_pick_snetwork(PeerIndex joiner);
  [[nodiscard]] PeerIndex server_random_tpeer();
  void server_handle_compete(PeerIndex orphan, PeerIndex dead_tpeer);
  /// Ring repair when a t-peer with no surviving s-network crashes: the
  /// server drops it from the registry and reconnects its ring neighbors.
  void server_handle_ring_repair(PeerIndex reporter, PeerIndex dead);
  /// A t-peer reported `dead` after its slot was already taken over: tell
  /// the reporter who holds the slot now, so a raced/suppressed adoption
  /// message cannot leave its ring pointers dangling forever.
  void server_refresh_ring_pointers(PeerIndex reporter, PeerIndex dead);
  /// Registry maintenance.  insert/erase also keep snetwork_by_size_ in
  /// step, so every s-network size change must flow through
  /// set_snetwork_size()/erase_snetwork_size() rather than writing
  /// snetwork_size_ directly.
  void registry_insert(PeerId pid, PeerIndex t);
  void registry_erase(PeerId pid);
  [[nodiscard]] PeerIndex registry_owner(std::uint64_t id) const;
  /// Server's view of t's s-network size (missing entry reads as 0, the
  /// same convention the smallest-first scan always used).
  [[nodiscard]] std::size_t snetwork_size_of(PeerIndex t) const;
  void set_snetwork_size(PeerIndex t, std::size_t size);
  void erase_snetwork_size(PeerIndex t);

  // --- Join protocols ----------------------------------------------------------

  void start_tpeer_join(PeerIndex joiner, sim::SimTime started,
                        JoinCallback done);
  void route_tjoin(PeerIndex at, PeerIndex joiner, std::uint32_t hops,
                   sim::SimTime started, JoinCallback done);
  void tjoin_at_pre(PeerIndex pre, PendingJoin req);
  void run_join_triangle(PeerIndex pre, PendingJoin req);
  void process_pending_joins(PeerIndex pre);
  void start_speer_join(PeerIndex joiner, PeerIndex target_tpeer,
                        sim::SimTime started, JoinCallback done);
  void descend_sjoin(PeerIndex at, PeerIndex joiner, std::uint32_t hops,
                     sim::SimTime started, JoinCallback done);
  [[nodiscard]] bool accepts_child(const Peer& p) const;
  [[nodiscard]] unsigned tree_degree(const Peer& p) const;

  // --- Leave / crash -----------------------------------------------------------

  void tpeer_leave(PeerIndex leaving);
  void speer_leave(PeerIndex leaving);
  /// Hands a leaving s-peer's items to the first live candidate, retrying
  /// down the list when the transfer is never acknowledged (the chosen heir
  /// crashed or left with the kData message in flight).  The leaver only
  /// goes dark once an heir acked receipt -- or every candidate is gone.
  void speer_leave_handoff(PeerIndex leaving,
                           std::shared_ptr<std::vector<PeerIndex>> candidates,
                           std::size_t next,
                           std::shared_ptr<std::vector<proto::DataItem>> items);
  /// Promotes s-peer `heir` into the ring position of `old_t` (graceful
  /// role transfer or crash replacement).  `with_data` carries old_t's
  /// store across (graceful only).
  void promote_speer(PeerIndex heir, PeerIndex old_t, bool with_data);
  void ring_leave(PeerIndex leaving);
  void ring_leave_wait_pre(PeerIndex leaving);
  void ring_leave_step2(PeerIndex pre, PeerIndex suc, PeerId suc_id,
                        PeerIndex leaving, PeerId pre_id);
  void broadcast_substitution(PeerIndex old_t, PeerIndex new_t);
  void detach_from_tree(PeerIndex p, bool notify_children);
  void rejoin_subtree(PeerIndex child);

  // --- Failure detection -------------------------------------------------------

  void heartbeat_tick(PeerIndex p);
  void heartbeat_step(PeerIndex p);
  [[nodiscard]] std::vector<PeerIndex> link_neighbors(const Peer& p) const;
  void on_neighbor_dead(PeerIndex at, PeerIndex dead);
  void note_heard(PeerIndex at, PeerIndex from);
  void maybe_ack(PeerIndex at, PeerIndex to);

  // --- Data path ---------------------------------------------------------------

  [[nodiscard]] bool in_local_segment(const Peer& p, DataId id) const;
  /// Forwards up the cp chain to the s-network's t-peer, then runs `at_root`
  /// there.  When the upward path is gone (detached orphan, mid-churn)
  /// `on_dead` runs instead -- lookups use it to fail fast rather than
  /// letting the requester wait out lookup_timeout.
  void forward_up_to_tpeer(PeerIndex at, std::uint32_t bytes,
                           proto::TrafficClass cls,
                           std::function<void(PeerIndex, std::uint32_t)> at_root,
                           std::uint32_t hops,
                           std::function<void()> on_dead = {},
                           stats::TraceContext ctx = {});
  /// Everything about one cp-chain climb that stays fixed from hop to hop.
  /// forward_up_to_tpeer boxes it once (only when a hop is needed); every
  /// hop's delivery shares it, so a hop's closure fits the transport's
  /// inline buffer and allocates nothing.
  struct ClimbTrip {
    std::uint32_t bytes;
    proto::TrafficClass cls;
    stats::TraceContext ctx;
    std::function<void(PeerIndex, std::uint32_t)> at_root;
    std::function<void()> on_dead;
  };
  /// The climb arriving at `at`: runs `at_root` at a t-peer, `on_dead` at
  /// a detached orphan, or forwards one hop up the cp chain.
  void climb_step(PeerIndex at, std::uint32_t hops,
                  const std::shared_ptr<ClimbTrip>& trip);
  /// Everything about one t-network trip that stays fixed from hop to hop.
  /// route_ring creates it once; every hop's delivery and every lost-hop
  /// retry share the same instance, so a hop costs O(1) whatever the trip
  /// length.
  struct RingTrip {
    std::uint64_t target;
    proto::TrafficClass cls;
    std::uint32_t bytes;
    stats::TraceContext ctx;
    std::function<void(PeerIndex, std::uint32_t, std::uint32_t)> at_owner;
    std::function<bool(PeerIndex, std::uint32_t)> intercept;
  };
  /// Forwards around the t-network until the owner of `target` is reached,
  /// then runs `at_owner(owner, hops, contacted)` there.  When `intercept`
  /// is set it runs at every intermediate t-peer; returning true consumes
  /// the request there (cache hits at surrogate peers, Section 7).  Both
  /// continuations are boxed once into a RingTrip for the whole trip.
  void route_ring(PeerIndex at, std::uint64_t target, std::uint32_t hops,
                  std::uint32_t contacted, proto::TrafficClass cls,
                  std::uint32_t bytes,
                  std::function<void(PeerIndex, std::uint32_t, std::uint32_t)>
                      at_owner,
                  std::function<bool(PeerIndex, std::uint32_t)> intercept = {},
                  stats::TraceContext ctx = {});
  /// The trip arriving at t-peer `at`: drops it if `at` left the ring,
  /// finishes at the owner, lets `intercept` consume it, or forwards on.
  void ring_step(PeerIndex at, std::uint32_t hops, std::uint32_t contacted,
                 const std::shared_ptr<RingTrip>& trip);
  /// One ring hop with retry: sends to the next hop and, while
  /// params_.ring_retry_limit allows, re-resolves and resends at send time
  /// + 2x hop latency + capped exponential backoff if the hop is lost.  A
  /// delivered hop schedules nothing.  The retry is armed only on a loss:
  /// when the receiver turns out dead at delivery, or right at send when
  /// the message was dropped there or is due after the deadline.
  void ring_forward(PeerIndex at, std::uint32_t hops, std::uint32_t contacted,
                    std::shared_ptr<RingTrip> trip, unsigned attempt);
  /// A delivered ring hop: traces it and continues the trip at `next`.
  void ring_hop(PeerIndex next, std::uint32_t hops, std::uint32_t contacted,
                const std::shared_ptr<RingTrip>& trip);
  /// Schedules ring_forward's retry of a lost hop from `at` at `deadline`,
  /// under the sequence number reserved when the hop was sent.
  void arm_ring_retry(PeerIndex at, std::uint32_t hops,
                      std::uint32_t contacted, std::shared_ptr<RingTrip> trip,
                      unsigned attempt, sim::SimTime deadline,
                      std::uint64_t seq);
  void place_item(PeerIndex at, proto::DataItem item, StoreCallback done);
  void spread_item(PeerIndex at, proto::DataItem item, StoreCallback done);
  /// Routes `item` from `from` to the responsible t-peer's s-network
  /// (cp-chain climb + ring forwarding + place_item).  Used to re-home
  /// items that ended up outside their segment after churn.
  void route_and_place(PeerIndex from, proto::DataItem item);
  /// Inserts locally when `at` is (or can't determine) the responsible
  /// s-network; otherwise forwards via route_and_place.
  void insert_or_rehome(PeerIndex at, proto::DataItem item);
  /// Re-homes every stored item at `at` that falls outside its s-network's
  /// segment (called after `at` lands in a possibly different s-network).
  void rehome_foreign_items(PeerIndex at);

  // --- Replication (segment-local durability) ----------------------------------

  /// True when the replication layer is on at all: r > 1 and a style whose
  /// placement the replica set can reason about (tracker mode indexes every
  /// copy explicitly, so it is excluded).
  [[nodiscard]] bool replication_active() const {
    return params_.replication_factor > 1 &&
           params_.style != SNetworkStyle::kBitTorrent;
  }
  /// Pushes replica-tagged copies of a freshly placed primary item to the
  /// other members of its replica set.  No-op when replication is off or
  /// `item` is itself a replica copy (no fan-out cascades).
  void replicate_item(PeerIndex at, const proto::DataItem& item);
  /// Idempotent local insert on the replication paths: merge (dedup by
  /// id + key) when replication is active, plain insert otherwise -- the
  /// r = 1 byte-identity guarantee keeps insert() on the legacy path.
  void store_or_merge(Peer& p, proto::DataItem item);
  /// One anti-entropy round started by t-peer `root`: the root sends its
  /// in-segment id digest to every live member (plus the successor fallback
  /// when the s-network is too small); members push items the root lacks and
  /// request in-segment items they should hold but don't.
  void replication_sweep(PeerIndex root);
  void sweep_at_member(PeerIndex member, PeerIndex root,
                       std::shared_ptr<const std::vector<DataId>> digest);
  /// Schedules a near-term sweep at `at`'s root after a churn event
  /// (gated on re_replicate_on_churn).
  void trigger_re_replication(PeerIndex at);
  /// True when `at` is the designated successor-fallback holder for `id`
  /// (the owner's successor t-peer, standing in for a too-small s-network).
  [[nodiscard]] bool is_fallback_holder(PeerIndex at, DataId id) const;
  /// Restores the primary copy at the owner after `item` answered a lookup
  /// from a non-primary replica at `at`.
  void maybe_read_repair(PeerIndex at, const proto::DataItem& item);

  /// Dispatches to flood() or random walks per params_.s_search.
  void search_snetwork(PeerIndex at, PeerIndex from, std::uint64_t qid,
                       unsigned ttl, std::uint32_t hops);
  void flood(PeerIndex at, PeerIndex from, std::uint64_t qid, unsigned ttl,
             std::uint32_t hops);
  void walk(PeerIndex at, std::uint64_t qid, unsigned ttl,
            std::uint32_t hops);
  [[nodiscard]] std::vector<PeerIndex> snetwork_neighbors(const Peer& p) const;
  bool try_answer(PeerIndex at, std::uint64_t qid, std::uint32_t hops);
  /// Store first, then cache (when enabled); nullptr on miss.
  [[nodiscard]] const proto::DataItem* answer_source(Peer& p, DataId id,
                                                     bool& from_cache);
  void cache_put(PeerIndex at, const proto::DataItem& item);
  /// Ends the query's current stage span (if any) and opens a new one named
  /// `name` under its root.  No-op when untraced.
  void trace_stage(std::uint64_t qid, const char* name, const char* category,
                   PeerIndex at);
  /// Context new work on this query should record under: the open stage
  /// span when one exists, else the root.  Invalid when untraced.
  [[nodiscard]] stats::TraceContext query_trace(std::uint64_t qid) const;

  void finish_query(std::uint64_t qid, proto::LookupResult result);
  /// Immediate failure (no timeout wait); sets LookupResult::fast_fail.
  void fail_query_fast(std::uint64_t qid);
  /// Arms the Section 3.4 re-flood for query `qid`: at lookup_timeout/2,
  /// if still unanswered, re-flood from `at` with doubled TTL.  Shared by
  /// the local-segment and remote-segment lookup paths.
  void arm_reflood(std::uint64_t qid, PeerIndex at);
  void arm_reroute(std::uint64_t qid, PeerIndex origin, DataId id);
  void start_remote_lookup(PeerIndex origin, std::uint64_t qid, DataId id);
  void bt_lookup(PeerIndex origin, std::uint64_t qid, PeerIndex tracker,
                 std::uint32_t hops);

  // --- Tracker index maintenance (BitTorrent style) -----------------------------

  /// Records `holder` for `id` in tracker `t`'s index (idempotent).
  static void tracker_index_add(Peer& t, DataId id, PeerIndex holder);
  /// Sends one announce for `id` from `member` up to its tracker root.
  /// No-op outside kBitTorrent or when tracker_reannounce is off.
  void tracker_announce(PeerIndex member, DataId id);
  /// Re-announces every id in `member`'s store to its (possibly new)
  /// tracker root: the index-healing path after crash promotion, orphan
  /// rejoin, and subtree re-attach.  Gated like tracker_announce.
  void tracker_reannounce_store(PeerIndex member);
  /// Drops `dead` from every entry of tracker `t`'s index (crash cleanup,
  /// driven by the tracker's own failure detection).
  static void tracker_index_prune(Peer& t, PeerIndex dead);
  void maybe_add_bypass(PeerIndex a, PeerIndex b);
  /// Drops expired links so they stop consuming the delta budget.
  void prune_bypass(Peer& p);
  /// Live link covering `id`, if any; using it refreshes its expiry timer
  /// ("transmitting a packet through the bypass link will refresh the
  /// attached timer", Section 5.4).
  [[nodiscard]] BypassLink* find_bypass(Peer& p, DataId id);

  // --- Landmark binning (Section 5.2) -------------------------------------------

  [[nodiscard]] std::uint64_t coordinate_of(HostIndex host) const;

  proto::OverlayNetwork& net_;
  sim::Simulator& sim_;
  HybridParams params_;
  Rng& rng_;

  /// Drops the live_peers() and role-census caches.  MUST be called after
  /// any change to a peer's `joined` flag or (post-join) role -- every such
  /// mutation site in hybrid_membership.cpp pairs with a call to this.
  /// Transport liveness changes are tracked separately via
  /// OverlayNetwork::liveness_epoch().
  void membership_changed() const {
    live_peers_dirty_ = true;
    role_counts_dirty_ = true;
  }
  /// Rebuilds the memoized t/s-peer census when dirty.  num_tpeers() and
  /// num_speers() feed the per-sim-second sampler gauges; an O(peers) scan
  /// of the fat Peer structs on every tick was the hottest non-event cost
  /// the dispatch profiler found at 20k peers.
  void refresh_role_counts() const;

  PeerIndex server_ = kNoPeer;  // the well-known server's transport endpoint
  std::vector<Peer> peers_;
  /// live_peers() cache; rebuilt lazily after membership_changed() or a
  /// transport liveness-epoch bump.
  mutable std::vector<PeerIndex> live_peers_cache_;
  mutable bool live_peers_dirty_ = true;
  mutable std::uint64_t live_peers_net_epoch_ = 0;
  /// Memoized joined-peer census by role, rebuilt via refresh_role_counts().
  mutable std::size_t tpeer_count_ = 0;
  mutable std::size_t speer_count_ = 0;
  mutable bool role_counts_dirty_ = true;
  /// Server-side ring registry: pid -> t-peer (ordered for owner queries).
  std::map<std::uint64_t, PeerIndex> registry_;
  /// Server-side round-robin cursors: interest/cluster -> t-peer list slot.
  std::unordered_map<std::uint64_t, std::size_t> assignment_cursor_;
  /// Server's (approximate) view of each s-network's size, for
  /// smallest-first assignment.
  std::unordered_map<std::uint32_t, std::size_t> snetwork_size_;
  /// Ascending (size, pid) over *registered* t-peers: begin() is the
  /// smallest-first assignment target in O(log N_t), where the old per-join
  /// registry scan was O(N_t) -- the dominant server cost past ~20k peers.
  /// Ties break toward the lowest pid, exactly like the scan it replaces.
  std::set<std::pair<std::size_t, std::uint64_t>> snetwork_by_size_;
  /// Reverse of registry_ (t-peer -> registered pid), so a size change can
  /// reposition the t-peer's snetwork_by_size_ entry without a search.
  /// Lookup-only; never iterated.
  std::unordered_map<std::uint32_t, std::uint64_t> registered_pid_of_;
  /// Sticky interest -> s-network anchor (Section 5.3).
  std::unordered_map<std::uint32_t, PeerIndex> interest_snetwork_;
  std::vector<HostIndex> landmarks_;
  std::unordered_map<std::uint64_t, Query> queries_;
  std::uint64_t next_query_id_ = 1;
  std::uint64_t next_key_ = 1;
  bool failure_detection_ = false;
  /// Orphans already competing for a given dead t-peer (server-side memory
  /// so the first competitor wins).
  std::unordered_set<std::uint32_t> replaced_tpeers_;
  std::uint64_t bypass_installs_ = 0;
  std::uint64_t bypass_uses_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t replica_pushes_ = 0;
  std::uint64_t re_replication_pushes_ = 0;
  std::uint64_t anti_entropy_repairs_ = 0;
  std::uint64_t read_repairs_ = 0;
  stats::SpanRecorder* tracer_ = nullptr;
  FloodObserver flood_observer_;

  /// In-flight keyword searches.
  struct KeywordQuery {
    PeerIndex origin = kNoPeer;
    std::string substring;
    KeywordResult result;
    std::unordered_set<std::uint32_t> visited;
    sim::TimerId timer{};
    KeywordCallback done;
  };
  std::unordered_map<std::uint64_t, KeywordQuery> keyword_queries_;
  void keyword_flood(PeerIndex at, PeerIndex from, std::uint64_t qid,
                     unsigned ttl);
  /// Circulates a keyword query clockwise around the ring; each t-peer
  /// contributes its own matches and floods its s-network, until the walk
  /// returns to `stop_at`.
  void keyword_ring_walk(PeerIndex at, PeerIndex stop_at, std::uint64_t qid);
  std::uint64_t start_keyword_query(PeerIndex from,
                                    const std::string& substring,
                                    sim::Duration collect_window,
                                    KeywordCallback done);
};

}  // namespace hp2p::hybrid
