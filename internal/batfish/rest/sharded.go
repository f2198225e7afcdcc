package rest

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/topology"
)

// ringReplicas is the number of virtual nodes each shard contributes to
// the consistent-hash ring. More replicas smooth the key distribution;
// 64 keeps the ring small while staying within a few percent of even on
// realistic check populations.
const ringReplicas = 64

// shard is one batfishd endpoint of a ShardedClient, with its health flag
// and round-trip accounting.
type shard struct {
	endpoint string
	client   *Client

	dead     atomic.Bool
	batches  atomic.Int64 // batched round-trips attempted against this shard
	failures atomic.Int64 // transport failures observed (cumulative)
	streak   atomic.Int64 // consecutive transport failures; a success resets it
	batchNS  atomic.Int64 // cumulative latency of batched round-trips

	tracer *obs.Tracer // nil until SetObs; failover events only
}

// noteSuccess records a served request: the shard is demonstrably alive,
// so its consecutive-failure budget starts over. Without the reset a
// long run against a slightly flaky fleet would accumulate isolated
// timeouts until every shard crossed the budget and was failed over —
// the budget is meant to catch a shard that is failing now, not one that
// ever failed.
func (s *shard) noteSuccess() { s.streak.Store(0) }

// ShardStat is one shard's counters, for benchmarks and diagnostics.
type ShardStat struct {
	// Endpoint is the shard's base URL.
	Endpoint string
	// Calls is the total HTTP round-trips issued to the shard (batched,
	// per-check fallback, health, and routed per-check traffic alike).
	Calls int64
	// Batches is the number of batched round-trips attempted.
	Batches int64
	// Failures is the number of transport failures observed (cumulative;
	// the failover budget tracks the consecutive streak separately).
	Failures int64
	// Retries is the number of transport-layer retry attempts the shard's
	// client issued riding out transient faults.
	Retries int64
	// Latency is the cumulative wall-clock of the batched round-trips.
	Latency time.Duration
	// Dead reports the shard is currently failed over.
	Dead bool
}

// String renders the counters.
func (s ShardStat) String() string {
	state := "up"
	if s.Dead {
		state = "DEAD"
	}
	return fmt.Sprintf("%s: %d calls, %d batches (%v), %d failures, %d retries, %s",
		s.Endpoint, s.Calls, s.Batches, s.Latency, s.Failures, s.Retries, state)
}

// ringPoint is one virtual node: a position on the hash ring owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// ShardedClient fans the verification suite out over several batfishd
// endpoints. It implements core.Verifier and the engine's backend seam
// (suite.Backend): each CheckBatch partitions its checks over a
// consistent-hash ring keyed by suite.ShardKey — whole-config checks stick
// to one shard for parse locality, attachment-scoped checks spread
// independently — and issues the per-shard batches concurrently, so an
// iteration costs at most one round-trip per shard, in parallel.
//
// Failover: a transport-level failure (connection refused, connection
// died) triggers a health probe of the shard — a dead endpoint fails the
// probe and is failed over at once, while a slow-but-alive one (a client
// timeout on a loaded shard) is kept until it exhausts a small failure
// budget, so one timeout cannot cascade a loaded fleet into "all shards
// dead". A failed-over shard's checks re-hash onto the survivors: the
// ring walk skips dead shards, so the surviving assignment is exactly
// what the ring would have produced without the dead shard, and results
// are unchanged because every check is a pure function of its inputs.
// Served errors (bad request, semantic rejections) propagate instead:
// they would reproduce identically on any shard. Health re-probes dead
// shards and revives the ones that answer. Each shard keeps its own v1
// per-check fallback: a shard running a pre-batch server degrades to
// per-check calls without affecting its peers.
//
// ShardedClient is safe for concurrent use.
type ShardedClient struct {
	shards []*shard
	ring   []ringPoint
	// digests memoizes per-revision hashing for the ring's routing keys
	// (suite.ShardKeyD): a configuration is hashed once per revision no
	// matter how many checks route by it.
	digests *suite.Digests
}

// NewShardedClient returns a client fanning out over the given batfishd
// base URLs with default per-endpoint options.
func NewShardedClient(endpoints []string) (*ShardedClient, error) {
	return NewShardedClientOpts(endpoints, ClientOptions{})
}

// NewShardedClientOpts returns a sharded client with tuned per-endpoint
// transport options. Endpoints must be non-empty and distinct; an empty
// element is rejected loudly — a silently dropped element would quietly
// build a smaller ring than the operator asked for.
func NewShardedClientOpts(endpoints []string, opts ClientOptions) (*ShardedClient, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("sharded client: no endpoints")
	}
	seen := map[string]bool{}
	s := &ShardedClient{digests: suite.NewDigests()}
	for i, ep := range endpoints {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			return nil, fmt.Errorf("sharded client: endpoint %d of %d is empty", i+1, len(endpoints))
		}
		base := strings.TrimRight(ep, "/")
		if seen[base] {
			return nil, fmt.Errorf("sharded client: duplicate endpoint %q", ep)
		}
		seen[base] = true
		s.shards = append(s.shards, &shard{endpoint: base, client: NewClientOpts(base, opts)})
	}
	s.ring = buildRing(s.shards)
	return s, nil
}

// SplitEndpoints normalizes a repeatable, comma-separated endpoint flag
// into the endpoint list a sharded client is built from: every value may
// carry several comma-separated endpoints, whitespace is trimmed, and an
// empty element is a loud error rather than a silently smaller ring.
func SplitEndpoints(values []string) ([]string, error) {
	var out []string
	for _, v := range values {
		for _, ep := range strings.Split(v, ",") {
			ep = strings.TrimSpace(ep)
			if ep == "" {
				return nil, fmt.Errorf("empty endpoint element in %q", v)
			}
			out = append(out, ep)
		}
	}
	return out, nil
}

// buildRing places ringReplicas virtual nodes per shard on the hash ring.
func buildRing(shards []*shard) []ringPoint {
	endpoints := make([]string, len(shards))
	for i, sh := range shards {
		endpoints[i] = sh.endpoint
	}
	return ringPoints(endpoints)
}

// ringPoints places ringReplicas virtual nodes per endpoint on the hash
// ring, in ring order; point.shard indexes endpoints.
func ringPoints(endpoints []string) []ringPoint {
	ring := make([]ringPoint, 0, len(endpoints)*ringReplicas)
	for i, ep := range endpoints {
		for r := 0; r < ringReplicas; r++ {
			ring = append(ring, ringPoint{
				hash:  hashKey(fmt.Sprintf("%s|%d", ep, r)),
				shard: i,
			})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		// Tie-break on shard index so the ring order is deterministic even
		// in the (vanishing) event of a hash collision.
		return ring[a].shard < ring[b].shard
	})
	return ring
}

// hashKey is the ring's hash function: the first eight bytes of SHA-256,
// deterministic across processes so every client agrees on the
// assignment. The virtual-node labels differ only in a trailing counter,
// and a weakly mixing hash (64-bit FNV-1a) clusters such labels on the
// ring, handing one shard most of the key space.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// normalizeEndpoint brings an endpoint to the ring's canonical form — the
// same trimming NewShardedClientOpts applies — so a server rebuilding the
// client's ring from a wire-shipped endpoint list lands every virtual
// node on the same positions.
func normalizeEndpoint(ep string) string {
	return strings.TrimRight(strings.TrimSpace(ep), "/")
}

// endpointRing is the consistent-hash ring over a fleet's endpoint list
// alone — the placement function of ShardedClient without its liveness
// and failover state. Servers handed the fleet list by a ring-scoped
// scenario warm (protocol v2) rebuild the ring with it and warm only the
// keys they own; because both sides build their points with ringPoints,
// the server's notion of ownership is byte-for-byte the client's.
type endpointRing struct {
	points    []ringPoint
	endpoints []string
}

// newEndpointRing builds the ring for a normalized endpoint list.
func newEndpointRing(endpoints []string) *endpointRing {
	r := &endpointRing{}
	for _, ep := range endpoints {
		r.endpoints = append(r.endpoints, normalizeEndpoint(ep))
	}
	r.points = ringPoints(r.endpoints)
	return r
}

// contains reports whether the endpoint is part of the ring.
func (r *endpointRing) contains(ep string) bool {
	ep = normalizeEndpoint(ep)
	for _, have := range r.endpoints {
		if have == ep {
			return true
		}
	}
	return false
}

// owner returns the endpoint the ring routes key to.
func (r *endpointRing) owner(key string) string {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.endpoints[r.points[i%len(r.points)].shard]
}

// shardFor walks the ring clockwise from the key's position to the first
// live shard. Skipping dead shards (rather than rebuilding the ring) makes
// failover minimal: only the dead shard's keys move, and they land exactly
// where the ring without that shard would have put them. Returns -1 when
// every shard is dead.
func (s *ShardedClient) shardFor(key string) int {
	h := hashKey(key)
	n := len(s.ring)
	start := sort.Search(n, func(i int) bool { return s.ring[i].hash >= h })
	for probed := 0; probed < n; probed++ {
		p := s.ring[(start+probed)%n]
		if !s.shards[p.shard].dead.Load() {
			return p.shard
		}
	}
	return -1
}

// Capabilities implements suite.Backend.
func (s *ShardedClient) Capabilities() suite.Capabilities {
	return suite.Capabilities{Batched: true}
}

// Calls returns the total HTTP round-trips issued across all shards.
func (s *ShardedClient) Calls() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.client.Calls()
	}
	return total
}

// Retries returns the transport-layer retry attempts summed across all
// shards — the fleet-wide counterpart of Client.Retries, so stats
// roll-ups see one number whichever backend is in play.
func (s *ShardedClient) Retries() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.client.Retries()
	}
	return total
}

// SetObs fans the registry and tracer out to every shard's client (each
// registers its counters under its own endpoint label) and arms the
// per-shard failover trace events.
func (s *ShardedClient) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	for _, sh := range s.shards {
		sh.client.SetObs(reg, tr)
		sh.tracer = tr
	}
}

// BytesSent returns the request-body bytes put on the wire across all
// shards.
func (s *ShardedClient) BytesSent() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.client.BytesSent()
	}
	return total
}

// Stats returns a snapshot of every shard's counters, in endpoint order.
func (s *ShardedClient) Stats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStat{
			Endpoint: sh.endpoint,
			Calls:    sh.client.Calls(),
			Batches:  sh.batches.Load(),
			Failures: sh.failures.Load(),
			Retries:  sh.client.Retries(),
			Latency:  time.Duration(sh.batchNS.Load()),
			Dead:     sh.dead.Load(),
		}
	}
	return out
}

// Health probes every shard, reviving dead shards that answer and marking
// unresponsive ones dead. It reports an error only when no shard is
// healthy — the ring keeps serving as long as one survivor remains.
func (s *ShardedClient) Health() error {
	healthy := 0
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.client.Health(); err != nil {
			sh.dead.Store(true)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %s: %w", sh.endpoint, err)
			}
			continue
		}
		sh.dead.Store(false)
		healthy++
	}
	if healthy == 0 {
		return fmt.Errorf("sharded client: no healthy shards: %w", firstErr)
	}
	return nil
}

// maxTransportFailures is the per-shard consecutive-failure budget: a
// shard that keeps failing at the transport layer is failed over even
// when its health endpoint still answers, so a wedged shard cannot stall
// a run with endless retries. A served request resets the streak (see
// noteSuccess) — only failures with no success in between count.
const maxTransportFailures = 3

// noteTransportFailure records a transport failure and decides whether to
// fail the shard over. A quick health probe distinguishes a dead endpoint
// (probe fails → failed over immediately) from a slow-but-alive one — a
// client-side timeout on a big batch must not cascade a loaded fleet into
// "all shards dead" — but an alive shard that exhausts its consecutive
// failure budget is failed over anyway.
func (s *shard) noteTransportFailure() {
	s.failures.Add(1)
	if s.streak.Add(1) >= maxTransportFailures || s.client.Health() != nil {
		if !s.dead.Swap(true) && s.tracer != nil {
			s.tracer.Emit(obs.Event{Stage: obs.StageFailover, Shard: s.endpoint, Outcome: "dead"})
		}
	}
}

// CheckBatch implements suite.Backend: partition the checks over the ring,
// issue one batched round-trip per shard concurrently, and re-hash the
// work of any shard that fails at the transport layer onto the survivors
// until every check has a result or no shard remains.
func (s *ShardedClient) CheckBatch(ctx context.Context, checks []suite.Check) ([]suite.Result, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	out := make([]suite.Result, len(checks))
	// pending holds the original indices of checks still needing results;
	// each round assigns them to live shards, runs the per-shard batches
	// concurrently, and retries the transport casualties next round.
	pending := make([]int, len(checks))
	for i := range checks {
		pending[i] = i
	}
	for len(pending) > 0 {
		groups := map[int][]int{}
		for _, idx := range pending {
			si := s.shardFor(suite.ShardKeyD(checks[idx], s.digests))
			if si < 0 {
				return nil, fmt.Errorf("sharded client: all %d shards dead", len(s.shards))
			}
			groups[si] = append(groups[si], idx)
		}
		type groupOutcome struct {
			shard int
			idxs  []int
			err   error
		}
		outcomes := make([]groupOutcome, 0, len(groups))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for si, idxs := range groups {
			si, idxs := si, idxs
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh := s.shards[si]
				batch := make([]suite.Check, len(idxs))
				for j, idx := range idxs {
					batch[j] = checks[idx]
				}
				sh.batches.Add(1)
				start := time.Now()
				results, err := sh.client.CheckBatch(ctx, batch)
				sh.batchNS.Add(int64(time.Since(start)))
				if err == nil && len(results) != len(batch) {
					err = fmt.Errorf("shard %s: %d results for %d checks",
						sh.endpoint, len(results), len(batch))
				}
				if err == nil {
					for j, idx := range idxs {
						out[idx] = results[j]
					}
				}
				mu.Lock()
				outcomes = append(outcomes, groupOutcome{shard: si, idxs: idxs, err: err})
				mu.Unlock()
			}()
		}
		wg.Wait()
		// A cancelled or expired caller context surfaces as transport
		// errors on every in-flight request; that is the caller's doing,
		// not shard death — propagate it without failing anything over.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pending = pending[:0]
		for _, oc := range outcomes {
			switch {
			case oc.err == nil:
				s.shards[oc.shard].noteSuccess()
			case IsTransportError(oc.err):
				// The shard is down: fail it over and re-hash its checks
				// onto the survivors next round.
				s.shards[oc.shard].noteTransportFailure()
				pending = append(pending, oc.idxs...)
			default:
				// A served error reproduces on any shard; propagate.
				return nil, fmt.Errorf("shard %s: %w", s.shards[oc.shard].endpoint, oc.err)
			}
		}
		sort.Ints(pending)
	}
	return out, nil
}

// withFailover runs one per-shard call against the ring's live owner of
// key, failing dead shards over and retrying on the survivors — the
// single failover loop behind every ctx-less Verifier entry point.
func (s *ShardedClient) withFailover(key string, fn func(c *Client) error) error {
	for {
		si := s.shardFor(key)
		if si < 0 {
			return fmt.Errorf("sharded client: all %d shards dead", len(s.shards))
		}
		err := fn(s.shards[si].client)
		if err == nil {
			s.shards[si].noteSuccess()
			return nil
		}
		if !IsTransportError(err) {
			return err
		}
		s.shards[si].noteTransportFailure()
	}
}

// doCheck routes one per-check Verifier call through the ring with the
// same failover the batched path uses.
func (s *ShardedClient) doCheck(c suite.Check) (suite.Result, error) {
	var res suite.Result
	err := s.withFailover(suite.ShardKeyD(c, s.digests), func(client *Client) error {
		// suite.Eval dispatches onto the shard's per-check client methods,
		// which keep the v1 wire compatibility (attachment stripping).
		var evalErr error
		res, evalErr = suite.Eval(client, c)
		return evalErr
	})
	if err != nil {
		return suite.Result{}, err
	}
	return res, nil
}

// CheckSyntax implements core.Verifier.
func (s *ShardedClient) CheckSyntax(config string) ([]netcfg.ParseWarning, error) {
	res, err := s.doCheck(suite.Check{Kind: suite.KindSyntax, Config: config})
	return res.Warnings, err
}

// DiffTranslation implements core.Verifier.
func (s *ShardedClient) DiffTranslation(original, translation string) ([]campion.Finding, error) {
	res, err := s.doCheck(suite.Check{Kind: suite.KindDiff, Original: original, Config: translation})
	return res.Diffs, err
}

// VerifyTopology implements core.Verifier.
func (s *ShardedClient) VerifyTopology(spec topology.RouterSpec, config string) ([]topology.Finding, error) {
	res, err := s.doCheck(suite.Check{Kind: suite.KindTopology, Spec: &spec, Config: config})
	return res.Findings, err
}

// CheckLocalPolicy implements core.Verifier.
func (s *ShardedClient) CheckLocalPolicy(config string, req lightyear.Requirement) (lightyear.Violation, bool, error) {
	res, err := s.doCheck(suite.Check{Kind: suite.KindLocal, Req: &req, Config: config})
	if err != nil || !res.Violated {
		return lightyear.Violation{}, false, err
	}
	if res.Violation == nil {
		return lightyear.Violation{}, false,
			fmt.Errorf("local-policy check on %s violated but carried no violation", req.Policy)
	}
	return *res.Violation, true, nil
}

// globalKey routes whole-network calls: they have no single config, so
// they hash on the topology name — stable for a run, and different
// topologies spread across shards.
func globalKey(t *topology.Topology) string {
	if t == nil {
		return ""
	}
	return "global|" + t.Name
}

// GlobalNoTransit implements core.Verifier, with the ring's failover.
func (s *ShardedClient) GlobalNoTransit(t *topology.Topology, configs map[string]string) (*lightyear.GlobalResult, error) {
	var res *lightyear.GlobalResult
	err := s.withFailover(globalKey(t), func(client *Client) error {
		var callErr error
		res, callErr = client.GlobalNoTransit(t, configs)
		return callErr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// GlobalNoTransitIncremental implements the engine's incremental-global
// capability (suite.IncrementalGlobal) over the ring: the check routes to
// the topology's stable owner shard (globalKey), whose server keeps the
// run's simulator session warm across iterations. A failover lands the
// check on a shard without the session, which simply runs cold and starts
// its own — results are identical, only the first check there pays full
// price.
func (s *ShardedClient) GlobalNoTransitIncremental(t *topology.Topology, configs map[string]string,
	hint *suite.GlobalHint) (*lightyear.GlobalResult, error) {
	var res *lightyear.GlobalResult
	err := s.withFailover(globalKey(t), func(client *Client) error {
		var callErr error
		res, callErr = client.GlobalNoTransitIncremental(t, configs, hint)
		return callErr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Search asks a SearchRoutePolicies question, routed like the config's
// other whole-config checks (by the revision's digest), so it lands on
// the shard that already parsed the revision.
func (s *ShardedClient) Search(config string, q batfish.SearchQuery) (batfish.SearchResult, error) {
	var res batfish.SearchResult
	err := s.withFailover(s.digests.Of(config), func(client *Client) error {
		var callErr error
		res, callErr = client.Search(config, q)
		return callErr
	})
	if err != nil {
		return batfish.SearchResult{}, err
	}
	return res, nil
}

// WarmScenario broadcasts a registry pre-warm to every live shard
// concurrently (see Client.WarmScenario — each warm triggers a full
// server-side family synthesis, so the fan-out costs one synthesis of
// wall-clock rather than one per shard) and returns how many shards
// warmed. Each shard is asked for a ring-scoped warm (scenario protocol
// v2) carrying the fleet's full endpoint list and the shard's own
// endpoint, so it parses only the configurations the ring routes to it;
// shards speaking only the v1 dialect are retried with a plain whole-
// family warm, and shards predating the endpoint entirely degrade
// gracefully: their IsScenarioUnsupported answers are ignored, so a mixed
// fleet warms wherever it can. Transport failures fail the shard over,
// consistent with the batched path.
func (s *ShardedClient) WarmScenario(scenario string, seed int64) (shardsWarmed int, err error) {
	// The ring the servers rebuild must be the ring the batches hash on:
	// the full fleet, dead shards included — deadness is transient and
	// client-local, and a revived shard's ownership must not depend on
	// when the warm happened to run.
	endpoints := make([]string, len(s.shards))
	for i, sh := range s.shards {
		endpoints[i] = sh.endpoint
	}
	errs := make([]error, len(s.shards))
	var warmed atomic.Int64
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if sh.dead.Load() {
			continue
		}
		i, sh := i, sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, werr := sh.client.WarmScenarioRing(scenario, seed, endpoints, sh.endpoint)
			if IsScenarioUnsupported(werr) {
				// The server may predate the ring dialect yet still warm
				// the v1 way (whole family); only a second rejection
				// classifies it as warm-less.
				resp, werr = sh.client.WarmScenario(scenario, seed)
			}
			switch {
			case werr == nil:
				sh.noteSuccess()
				// A server with no warmer configured answers 200 with zero
				// warmed configs; that shard validated the family but
				// warmed nothing, so it does not count — unless it
				// registered resolvable spec bodies, which future batches
				// profit from just the same. A ring-scoped shard owning
				// zero configs of a small family also counts this way.
				if resp.WarmedConfigs > 0 || resp.SpecsRegistered > 0 {
					warmed.Add(1)
				}
			case IsTransportError(werr):
				sh.noteTransportFailure()
			case IsScenarioUnsupported(werr):
				// Old server: no registry endpoint; nothing to warm there.
			default:
				errs[i] = fmt.Errorf("shard %s: %w", sh.endpoint, werr)
			}
		}()
	}
	wg.Wait()
	for _, werr := range errs {
		if werr != nil {
			return int(warmed.Load()), werr
		}
	}
	return int(warmed.Load()), nil
}
