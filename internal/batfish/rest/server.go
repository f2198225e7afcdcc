package rest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/durable"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/topology"
)

// ScenarioWarmer pre-warms server state for one registered topology
// family (see /v1/scenario): given the generated family instance, the
// client's simulated-LLM seed (zero: default), the handler's shared
// parse cache, and the warm's ownership predicate, it returns how many
// configuration revisions it parsed into the cache. cmd/batfishd wires a
// warmer that synthesizes the family with the deterministic simulated LLM
// at that seed and parses the resulting configurations, so the client run
// that follows hits warm parses. owned reports whether a configuration is
// this server's to warm: under a ring-scoped warm (scenario protocol v2)
// it is the fleet's consistent-hash placement — configurations owned by
// other shards are never routed here, so parsing them would only burn
// memory — and under a plain warm it admits everything. The warmer is
// only invoked when the handler has a shared cache to warm.
type ScenarioWarmer func(topo *topology.Topology, seed int64, parses *netcfg.ParseCache,
	owned func(config string) bool) (int, error)

// HandlerOptions tunes the verification-suite handler.
type HandlerOptions struct {
	// BatchWorkers bounds the worker pool evaluating the checks of one
	// /v1/batch request concurrently; <= 0 uses GOMAXPROCS.
	BatchWorkers int
	// Parses, when set, is a parse cache shared across requests: batched
	// checks parse through it instead of a request-scoped cache, so
	// /v1/scenario pre-warms pay off on later batches. It grows with every
	// distinct configuration revision seen, so long-lived servers trade
	// memory for parse time; leave nil to keep the request-scoped
	// behaviour.
	Parses *netcfg.ParseCache
	// Warmer, when set with Parses, backs the /v1/scenario registry
	// pre-warm endpoint. The endpoint itself is always served (it
	// validates the family and reports its shape); without a warmer it
	// simply warms nothing.
	Warmer ScenarioWarmer
	// Durable, when set, answers batched checks from a disk cache keyed by
	// suite.Key and persists computed results into it — the same
	// content-addressed store the engine's CachedVerifier mounts, so a
	// restarted shard (or a whole fleet sharing a directory) comes back
	// warm instead of re-verifying every revision it had already seen.
	// Per-check errors are never cached. When Parses is also set, the
	// store doubles as the stanza sub-cache's durable fragment tier, so a
	// restarted shard re-parses only the stanzas it has never seen.
	Durable *durable.Cache
	// Metrics, when set, is the registry behind the handler's
	// observability surface: GET /metrics (Prometheus text exposition) and
	// GET /debug/vars (JSON snapshot) are mounted on the handler's mux,
	// and the handler's own request/batch counters register into it. Nil
	// gets the handler a private registry, so the endpoints are always
	// live — an in-process shard scrapes the same way a remote one does.
	Metrics *obs.Registry
	// MaxBatchProtocol, when positive, caps the batch dialect this handler
	// accepts below its native BatchProtocolVersion: requests stamped
	// higher — and checks carrying newer-dialect fields (a v3 body
	// reference, a v4 ConfigDelta) — are rejected with 400 exactly as a
	// genuinely older server would reject them. Interop tests and
	// mixed-vintage fleets use it to prove clients degrade cleanly. Zero
	// means native.
	MaxBatchProtocol int
}

// NewHandler returns the HTTP handler serving the verification suite with
// default options.
func NewHandler() http.Handler {
	return NewHandlerOpts(HandlerOptions{})
}

// NewHandlerOpts returns the HTTP handler serving the verification suite.
func NewHandlerOpts(opts HandlerOptions) http.Handler {
	if opts.BatchWorkers <= 0 {
		opts.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.Durable != nil && opts.Parses != nil {
		// The disk cache doubles as the stanza sub-cache's durable
		// fragment tier: restarted shards re-parse only unseen stanzas.
		opts.Parses.SetFragmentStore(opts.Durable)
	}
	maxProto := BatchProtocolVersion
	if opts.MaxBatchProtocol > 0 && opts.MaxBatchProtocol < maxProto {
		maxProto = opts.MaxBatchProtocol
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	mux := http.NewServeMux()
	obsHandler := obs.Handler(opts.Metrics)
	mux.Handle(obs.MetricsPath, obsHandler)
	mux.Handle(obs.VarsPath, obsHandler)
	mux.HandleFunc(PathHealth, handleHealth)
	mux.HandleFunc(PathSyntax, handleSyntax)
	mux.HandleFunc(PathDiff, handleDiff)
	mux.HandleFunc(PathTopology, handleTopology)
	mux.HandleFunc(PathLocal, handleLocal)
	sessions := &globalSessions{entries: map[string]*globalSessEntry{}}
	mux.HandleFunc(PathNoTransit, func(w http.ResponseWriter, r *http.Request) {
		handleNoTransit(w, r, sessions)
	})
	mux.HandleFunc(PathSearch, handleSearch)
	warms := &scenarioWarms{done: map[string]int{}, regs: map[string]*scenarioRegistry{}}
	env := &batchEnv{
		workers:  opts.BatchWorkers,
		parses:   opts.Parses,
		warms:    warms,
		disk:     opts.Durable,
		revs:     &revisionStore{entries: map[string][]string{}},
		digests:  suite.NewDigests(),
		maxProto: maxProto,
		reg:      opts.Metrics,
	}
	mux.HandleFunc(PathBatch, func(w http.ResponseWriter, r *http.Request) {
		handleBatch(w, r, env)
	})
	mux.HandleFunc(PathScenario, func(w http.ResponseWriter, r *http.Request) {
		handleScenario(w, r, opts.Parses, opts.Warmer, warms)
	})
	// Per-path request accounting wraps the whole mux; the observability
	// endpoints themselves are excluded so a scrape loop does not inflate
	// the very numbers it reads.
	reg := opts.Metrics
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != obs.MetricsPath && r.URL.Path != obs.VarsPath {
			reg.Counter("batfishd_requests_total", "path", r.URL.Path).Inc()
		}
		mux.ServeHTTP(w, r)
	})
}

// batchEnv is the handler state every /v1/batch request is served with.
type batchEnv struct {
	workers  int
	parses   *netcfg.ParseCache
	warms    *scenarioWarms
	disk     *durable.Cache
	revs     *revisionStore
	digests  *suite.Digests
	maxProto int
	reg      *obs.Registry
}

// scenarioWarms memoizes completed scenario warms per handler. A warm is a
// pure function of (name, size, seed, ring scope) and its parses persist
// in the shared cache, so repeating it — every cosynth run broadcasts a
// warm, and an unauthenticated POST could demand one — would re-pay a
// whole family synthesis for nothing. The mutex doubles as singleflight:
// concurrent warms of the same family serialize and the later one returns
// the memo. It also holds the per-family spec registries that resolve v3
// batch references.
type scenarioWarms struct {
	mu   sync.Mutex
	done map[string]int
	// regs maps the resolved "name:size" to the family's registered spec
	// and requirement bodies. Registries are seed- and ring-independent:
	// the bodies derive from the generated topology alone.
	regs map[string]*scenarioRegistry
}

// registry returns the warmed family's registry, or nil.
func (s *scenarioWarms) registry(scenario string) *scenarioRegistry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.regs[scenario]
}

// scenarioRegistry holds one warmed family's spec and requirement bodies,
// content-addressed by RefDigest, so ref-carrying batched checks (batch
// protocol v3) resolve server-side instead of re-shipping the bodies on
// every iteration. A digest the registry cannot resolve means client and
// server derived different bodies for the same scenario (a code-
// generation drift) and fails the batch rather than answering against the
// wrong spec.
type scenarioRegistry struct {
	specs map[string]*topology.RouterSpec
	reqs  map[string]*lightyear.Requirement
}

// buildScenarioRegistry registers the family's router specs and local
// no-transit requirements under their content digests.
func buildScenarioRegistry(topo *topology.Topology) *scenarioRegistry {
	reg := &scenarioRegistry{
		specs: make(map[string]*topology.RouterSpec, len(topo.Routers)),
		reqs:  map[string]*lightyear.Requirement{},
	}
	for i := range topo.Routers {
		spec := &topo.Routers[i]
		reg.specs[RefDigest(spec)] = spec
	}
	for _, req := range lightyear.SpecFor(topo) {
		req := req
		reg.reqs[RefDigest(&req)] = &req
	}
	return reg
}

// size returns the number of registered bodies, reported to clients as
// SpecsRegistered.
func (r *scenarioRegistry) size() int { return len(r.specs) + len(r.reqs) }

func handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// decode reads a JSON POST body; it writes the error response itself and
// reports whether decoding succeeded.
func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func handleSyntax(w http.ResponseWriter, r *http.Request) {
	var req SyntaxRequest
	if !decode(w, r, &req) {
		return
	}
	warns := batfish.CheckSyntax(req.Config)
	writeJSON(w, http.StatusOK, SyntaxResponse{Warnings: warns})
}

func handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	if !decode(w, r, &req) {
		return
	}
	orig, _ := batfish.ParseConfig(req.Original)
	trans, _ := batfish.ParseConfig(req.Translation)
	writeJSON(w, http.StatusOK, DiffResponse{Findings: campion.Diff(orig, trans)})
}

func handleTopology(w http.ResponseWriter, r *http.Request) {
	var req TopologyRequest
	if !decode(w, r, &req) {
		return
	}
	dev, _ := batfish.ParseConfig(req.Config)
	writeJSON(w, http.StatusOK, TopologyResponse{Findings: topology.Verify(&req.Spec, dev)})
}

func handleLocal(w http.ResponseWriter, r *http.Request) {
	var req LocalRequest
	if !decode(w, r, &req) {
		return
	}
	dev, _ := batfish.ParseConfig(req.Config)
	v, bad := lightyear.Check(dev, req.Requirement)
	resp := LocalResponse{Violated: bad}
	if bad {
		resp.Violation = &v
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxGlobalSessions bounds the handler's simulator-session store: each
// entry holds a whole network's converged RIB history, so an unbounded
// store would let every distinct run (or an unauthenticated POST) pin
// memory forever. Eviction is oldest-first; an evicted run's next check
// simply runs cold and starts a fresh session.
const maxGlobalSessions = 8

// globalSessions holds the handler's live simulator sessions for the v2
// no-transit protocol, keyed by the suite.ConfigDigest of the last
// configuration set each session verified. A request continuing a session
// claims the entry (removing it from the store) for the duration of the
// check — GlobalSession is not concurrency-safe, and claiming makes a
// concurrent request with the same prior digest miss and run cold rather
// than race — then re-stores it under the new digest.
type globalSessions struct {
	mu      sync.Mutex
	entries map[string]*globalSessEntry
	order   []string // insertion order, for oldest-first eviction
}

// globalSessEntry is one stored session: the simulator plus what it last
// verified, for server-side change derivation and topology validation.
type globalSessEntry struct {
	topoDigest string
	configs    map[string]string
	sess       *lightyear.GlobalSession
}

// claim removes and returns the session keyed by digest, if any.
func (g *globalSessions) claim(digest string) (*globalSessEntry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.entries[digest]
	if !ok {
		return nil, false
	}
	delete(g.entries, digest)
	for i, k := range g.order {
		if k == digest {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	return e, true
}

// put stores a session under digest, evicting oldest entries past the
// bound.
func (g *globalSessions) put(digest string, e *globalSessEntry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.entries[digest]; ok {
		for i, k := range g.order {
			if k == digest {
				g.order = append(g.order[:i], g.order[i+1:]...)
				break
			}
		}
	}
	g.entries[digest] = e
	g.order = append(g.order, digest)
	for len(g.order) > maxGlobalSessions {
		delete(g.entries, g.order[0])
		g.order = g.order[1:]
	}
}

// diffConfigs derives the changed-router set server-side: routers whose
// text differs, appeared, or vanished between the session's stored set
// and the incoming one. Always non-nil — an empty diff still means
// "known: nothing changed", which the session serves without any
// re-simulation.
func diffConfigs(prev, next map[string]string) []string {
	changed := []string{}
	for name, text := range next {
		if old, ok := prev[name]; !ok || old != text {
			changed = append(changed, name)
		}
	}
	for name := range prev {
		if _, ok := next[name]; !ok {
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)
	return changed
}

// handleNoTransit serves the global BGP-simulation check. A v2 request
// (see NoTransitProtocolVersion) continues or starts a simulator session:
// when PriorDigest claims a stored session for the same topology, only
// the routers whose configuration text changed are re-simulated; any
// mismatch — no session, evicted, different topology — degrades to a cold
// run that seeds a fresh session. v1 requests are served statelessly,
// exactly as before.
func handleNoTransit(w http.ResponseWriter, r *http.Request, sessions *globalSessions) {
	var req NoTransitRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Version > NoTransitProtocolVersion {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf(
			"unsupported no-transit protocol version %d (server speaks %d)",
			req.Version, NoTransitProtocolVersion)})
		return
	}
	if req.Topology == nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "topology required"})
		return
	}
	devs := map[string]*netcfg.Device{}
	for name, text := range req.Configs {
		dev, _ := batfish.ParseConfig(text)
		devs[name] = dev
	}
	if req.Version < 2 {
		result, err := lightyear.CheckGlobalNoTransit(req.Topology, devs)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, NoTransitResponse{Result: result})
		return
	}
	topoDig := suite.TopologyDigest(req.Topology)
	var sess *lightyear.GlobalSession
	var changed []string // nil: cold run
	if req.PriorDigest != "" {
		if e, ok := sessions.claim(req.PriorDigest); ok && e.topoDigest == topoDig {
			sess = e.sess
			// The client's Changed list is advisory only: the session's
			// stored configs let the server derive the true change set, so
			// a hint can never understate a change.
			changed = diffConfigs(e.configs, req.Configs)
		}
	}
	if sess == nil {
		sess = lightyear.NewGlobalSession(req.Topology)
	}
	result, err := sess.Check(devs, changed)
	if err != nil {
		// The session may hold half-updated state; drop it rather than
		// re-store. The run's next check misses and runs cold.
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	sessions.put(suite.ConfigDigest(req.Configs), &globalSessEntry{
		topoDigest: topoDig,
		configs:    req.Configs,
		sess:       sess,
	})
	writeJSON(w, http.StatusOK, NoTransitResponse{Result: result})
}

// evalBatchCheck answers one batched check; parses goes through the
// request-scoped cache so a batch carrying the same configuration for its
// syntax, topology, and local checks parses it once.
func evalBatchCheck(c BatchCheck, parses *netcfg.ParseCache) BatchResult {
	switch c.Kind {
	case BatchKindSyntax:
		return BatchResult{Warnings: parses.Parse(c.Config).CheckWarnings}
	case BatchKindTopology:
		if c.Spec == nil {
			return BatchResult{Error: "topology check requires a spec"}
		}
		dev := parses.Parse(c.Config).Device
		return BatchResult{Findings: topology.Verify(c.Spec, dev)}
	case BatchKindLocal:
		if c.Requirement == nil {
			return BatchResult{Error: "local check requires a requirement"}
		}
		v, bad := lightyear.CheckParsed(parses.Parse(c.Config), *c.Requirement)
		res := BatchResult{Violated: bad}
		if bad {
			res.Violation = &v
		}
		return res
	case BatchKindDiff:
		orig := parses.Parse(c.Original).Device
		trans := parses.Parse(c.Config).Device
		return BatchResult{Diffs: campion.Diff(orig, trans)}
	default:
		return BatchResult{Error: fmt.Sprintf("unknown check kind %q", c.Kind)}
	}
}

// evalBatchCheckDurable answers one batched check through the server's
// mounted disk cache: a hit (decoded from the content-addressed entry)
// skips the evaluation entirely, a miss computes and — unless the check
// itself was malformed — persists. The cache key is suite.Key over the
// check's resolved form, the same identity the engine's client-side cache
// uses, so a cosynth run and the shard it talks to can share one
// directory without double-keying. Decode failures fall through to
// recomputation; disk write failures are swallowed (a full disk degrades
// the shard to uncached, it does not fail the batch).
func evalBatchCheckDurable(c BatchCheck, parses *netcfg.ParseCache, d *durable.Cache,
	digests *suite.Digests) BatchResult {
	key := suite.KeyD(suite.Check{
		Kind:     suite.Kind(c.Kind),
		Config:   c.Config,
		Original: c.Original,
		Spec:     c.Spec,
		Req:      c.Requirement,
	}, digests)
	if payload, ok := d.Get(key); ok {
		var res BatchResult
		if err := json.Unmarshal(payload, &res); err == nil && res.Error == "" {
			return res
		}
	}
	res := evalBatchCheck(c, parses)
	if res.Error == "" {
		if payload, err := json.Marshal(res); err == nil {
			_ = d.Put(key, payload)
		}
	}
	return res
}

// resolveBatchRefs substitutes the registry bodies for the request's
// SpecRef/ReqRef references (batch protocol v3). An unresolvable ref —
// no scenario named, no registry for it, or a digest the registry does
// not hold — is a dialect-level failure of the whole batch: answering
// the other checks while silently mis-resolving one would hand back
// untrustworthy results, and the client's reaction to the 400 (latch
// refs off, re-send full bodies) repairs the run in one round-trip.
func resolveBatchRefs(req *BatchRequest, warms *scenarioWarms) error {
	refs := false
	for i := range req.Checks {
		if req.Checks[i].SpecRef != "" || req.Checks[i].ReqRef != "" {
			refs = true
			break
		}
	}
	if !refs {
		return nil
	}
	if req.Scenario == "" {
		return fmt.Errorf("batch carries body references but names no scenario")
	}
	name, size, err := netgen.ParseScenarioArg(req.Scenario)
	if err != nil {
		return err
	}
	if size <= 0 {
		sc, _ := netgen.Lookup(name)
		size = sc.DefaultSize
	}
	resolved := fmt.Sprintf("%s:%d", name, size)
	reg := warms.registry(resolved)
	if reg == nil {
		return fmt.Errorf("scenario %s is not pre-warmed on this server", resolved)
	}
	for i := range req.Checks {
		c := &req.Checks[i]
		if c.SpecRef != "" {
			if c.Spec = reg.specs[c.SpecRef]; c.Spec == nil {
				return fmt.Errorf("unresolvable spec ref %s for %s", c.SpecRef, resolved)
			}
		}
		if c.ReqRef != "" {
			if c.Requirement = reg.reqs[c.ReqRef]; c.Requirement == nil {
				return fmt.Errorf("unresolvable requirement ref %s for %s", c.ReqRef, resolved)
			}
		}
	}
	return nil
}

// maxRevisions bounds the handler's revision store for v4 deltas: each
// entry holds one revision's stanza split, so the store costs about one
// config set's worth of memory per recent run. Eviction is oldest-first;
// a delta against an evicted revision answers 409 and the client re-seeds
// the store with full bodies.
const maxRevisions = 256

// revisionStore holds the stanza splits of recently seen configuration
// revisions, keyed by suite.TextDigest of the full text — the server half
// of the v4 delta protocol. Splits are recorded once per distinct
// revision and never mutated, so readers share them without copying.
type revisionStore struct {
	mu      sync.Mutex
	entries map[string][]string
	order   []string // insertion order, for oldest-first eviction
}

// get returns the stored split of the revision, if any.
func (s *revisionStore) get(digest string) ([]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	return e, ok
}

// record splits and stores one revision; already-stored revisions are not
// re-split.
func (s *revisionStore) record(text string, d *suite.Digests) {
	digest := d.Of(text)
	s.mu.Lock()
	_, ok := s.entries[digest]
	s.mu.Unlock()
	if ok {
		return
	}
	split := stanzaTexts(text)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[digest]; ok {
		return
	}
	s.entries[digest] = split
	s.order = append(s.order, digest)
	for len(s.order) > maxRevisions {
		delete(s.entries, s.order[0])
		s.order = s.order[1:]
	}
}

// resolveBatchDeltas reassembles the full Config body of every
// delta-carrying check (batch protocol v4) from the revision store. Any
// failure — a prior revision the store no longer holds, ops that do not
// consume it exactly, a reassembly that does not hash to the claimed
// digest — fails the whole batch: evaluating the other checks while one
// body is unreconstructible would interleave two protocol states. The
// caller answers 409 Conflict, and the client re-sends the batch with
// full bodies, re-seeding the store.
func resolveBatchDeltas(req *BatchRequest, revs *revisionStore) error {
	for i := range req.Checks {
		c := &req.Checks[i]
		if c.ConfigDelta == nil {
			continue
		}
		prior, ok := revs.get(c.ConfigDelta.PriorDigest)
		if !ok {
			return fmt.Errorf("check %d: unknown prior revision %s", i, c.ConfigDelta.PriorDigest)
		}
		text, err := applyDelta(prior, c.ConfigDelta)
		if err != nil {
			return fmt.Errorf("check %d: %v", i, err)
		}
		c.Config = text
		c.ConfigDelta = nil
	}
	return nil
}

// handleBatch evaluates a whole batch of independent checks in one
// round-trip, fanning them onto a bounded worker pool. Results are
// positional; a malformed individual check yields a per-result error
// without failing the batch. env.parses, when non-nil, replaces the
// request-scoped parse cache so scenario pre-warms and earlier requests'
// parses are reused.
func handleBatch(w http.ResponseWriter, r *http.Request, env *batchEnv) {
	var req BatchRequest
	if !decode(w, r, &req) {
		return
	}
	start := time.Now()
	env.reg.Counter("batfishd_batch_requests_total", "proto", strconv.Itoa(req.Version)).Inc()
	env.reg.Counter("batfishd_batch_checks_total").Add(uint64(len(req.Checks)))
	defer func() {
		env.reg.Histogram("batfishd_batch_seconds", obs.DefSecondsBuckets).Observe(time.Since(start).Seconds())
	}()
	// Version gate: accept anything up to our dialect (older payloads
	// simply lack the newer advisory fields), reject newer ones so a
	// future client downgrades to the per-check endpoints instead of
	// having half-understood checks evaluated. Pre-versioning clients send
	// no version at all (0). A capped handler (MaxBatchProtocol) also
	// rejects newer-dialect fields on unstamped payloads, exactly as an
	// old server's strict decoder would.
	if req.Version > env.maxProto {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf(
			"unsupported batch protocol version %d (server speaks %d)",
			req.Version, env.maxProto)})
		return
	}
	if env.maxProto < BatchProtocolVersion {
		for i := range req.Checks {
			c := &req.Checks[i]
			if c.ConfigDelta != nil {
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf(
					"check %d carries a config delta (batch protocol 4; server speaks %d)",
					i, env.maxProto)})
				return
			}
			if env.maxProto < 3 && (c.SpecRef != "" || c.ReqRef != "") {
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf(
					"check %d carries body references (batch protocol 3; server speaks %d)",
					i, env.maxProto)})
				return
			}
		}
	}
	if err := resolveBatchDeltas(&req, env.revs); err != nil {
		// 409, not 400: the dialect is fine, this server just lost the
		// prior revisions. The client re-sends full bodies without
		// latching deltas off.
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		return
	}
	if env.maxProto >= BatchProtocolVersion {
		// Every revision this batch carried (as a body or a reassembled
		// delta) is now resolvable; record it so the client's next batch
		// can delta against it.
		recorded := map[string]bool{}
		for i := range req.Checks {
			if cfg := req.Checks[i].Config; cfg != "" && !recorded[cfg] {
				recorded[cfg] = true
				env.revs.record(cfg, env.digests)
			}
		}
	}
	if err := resolveBatchRefs(&req, env.warms); err != nil {
		// 400, like a version-gate rejection: the client latches the
		// reference dialect off and retries with full bodies.
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	parses := env.parses
	if parses == nil {
		parses = batfish.NewParseCache()
	}
	eval := func(c BatchCheck) BatchResult {
		if env.disk != nil {
			return evalBatchCheckDurable(c, parses, env.disk, env.digests)
		}
		return evalBatchCheck(c, parses)
	}
	results := make([]BatchResult, len(req.Checks))
	workers := env.workers
	if workers > len(req.Checks) {
		workers = len(req.Checks)
	}
	if workers <= 1 {
		for i, c := range req.Checks {
			results[i] = eval(c)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for n := 0; n < workers; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					results[i] = eval(req.Checks[i])
				}
			}()
		}
		for i := range req.Checks {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// handleScenario serves the registry pre-warm endpoint: validate the
// requested family against the server's own scenario registry, generate
// the instance, and hand it to the warmer (if any) to pre-parse the
// family's expected configurations into the shared cache. Version-gated
// like the batch endpoint: a newer dialect is rejected with 400, which
// clients treat like a missing endpoint and skip the warm-up.
func handleScenario(w http.ResponseWriter, r *http.Request, parses *netcfg.ParseCache,
	warmer ScenarioWarmer, warms *scenarioWarms) {
	var req ScenarioRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Version > ScenarioProtocolVersion {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf(
			"unsupported scenario protocol version %d (server speaks %d)",
			req.Version, ScenarioProtocolVersion)})
		return
	}
	name, size, err := netgen.ParseScenarioArg(req.Scenario)
	if err != nil {
		// 422, not 400: the dialect is fine, this server just cannot serve
		// the family — clients must surface it rather than silently skip.
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	if size <= 0 {
		sc, _ := netgen.Lookup(name)
		size = sc.DefaultSize
	}
	topo, err := netgen.Generate(name, size)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	resolved := fmt.Sprintf("%s:%d", name, size)
	// Register the family's spec and requirement bodies for v3 batch
	// references. Registration is independent of the config warm — it
	// needs no synthesis, only the topology just generated — so even a
	// validation-only server resolves references.
	warms.mu.Lock()
	reg, ok := warms.regs[resolved]
	if !ok {
		reg = buildScenarioRegistry(topo)
		warms.regs[resolved] = reg
	}
	warms.mu.Unlock()
	// Ring scope (v2): warm only the configurations the fleet's
	// consistent-hash ring routes to this server. An unusable scope — an
	// endpoint list that does not contain Self — degrades to warming
	// everything rather than failing: the warm is an optimization.
	owned := func(string) bool { return true }
	if len(req.ShardEndpoints) > 1 && req.Self != "" {
		if ring := newEndpointRing(req.ShardEndpoints); ring.contains(req.Self) {
			self := normalizeEndpoint(req.Self)
			// The ring hashes the client's routing key — the revision's
			// digest (suite.ShardKeyD), not its body — so ownership here
			// must digest before walking the ring to agree with it.
			owned = func(config string) bool { return ring.owner(suite.TextDigest(config)) == self }
		}
	}
	warmed := 0
	// The warmer contract hands it the shared cache; with no cache there
	// is nothing to warm into, so skip the synthesis instead of paying for
	// parses that are thrown away (or passing the warmer a nil cache).
	// Completed warms are memoized per (name, size, seed, ring scope) —
	// the synthesis is pure and its parses persist — so repeat warms are
	// free.
	if warmer != nil && parses != nil {
		key := fmt.Sprintf("%s|%d|%s|%s", resolved, req.Seed,
			strings.Join(req.ShardEndpoints, ","), req.Self)
		warms.mu.Lock()
		memo, ok := warms.done[key]
		if ok {
			warmed = memo
		} else {
			if warmed, err = warmer(topo, req.Seed, parses, owned); err != nil {
				warms.mu.Unlock()
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: fmt.Sprintf(
					"warming %s: %v", req.Scenario, err)})
				return
			}
			warms.done[key] = warmed
		}
		warms.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, ScenarioResponse{
		Scenario:        resolved,
		Routers:         len(topo.Routers),
		Attachments:     len(topo.ExternalAttachments()),
		WarmedConfigs:   warmed,
		SpecsRegistered: reg.size(),
	})
}

func handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decode(w, r, &req) {
		return
	}
	dev, _ := batfish.ParseConfig(req.Config)
	result, err := batfish.SearchRoutePolicies(dev, req.Query)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SearchResponse{Result: result})
}
