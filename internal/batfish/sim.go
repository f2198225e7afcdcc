package batfish

import (
	"fmt"
	"sort"

	"repro/internal/netcfg"
)

// Sim is the BGP control-plane simulator: the paper's final global check
// ("we simulate the entire BGP communication using Batfish as a final
// step, in order to ensure that the global policy is satisfied", §4.1).
//
// The model: every configured device and every external stub is a BGP
// speaker; eBGP sessions form between speakers that declare each other;
// announcements flow through the sender's export route map and the
// receiver's import route map; AS-path loop detection drops looped routes;
// best-path selection is local-pref, then AS-path length, then MED, then
// lowest peer address. Propagation iterates to a fixpoint.
type Sim struct {
	nodes   map[string]*simNode
	byAddr  map[uint32]*simNode
	added   []string // node names in AddDevice/AddExternal order
	maxIter int

	// Persistent-session state (see RunIncremental). record turns on
	// per-round history capture; history is the last run's round-by-round
	// RIB trajectory; dirty names the routers Update replaced since that
	// run; coldNeeded forces the next RunIncremental back onto the cold
	// path (set when an update changes interface addressing, which can
	// re-route other routers' neighbor declarations through byAddr in ways
	// the flooding frontier does not track).
	record     bool
	history    *simHistory
	dirty      map[string]bool
	coldNeeded bool
}

// simHistory is one run's round-by-round trajectory: rounds[0] holds the
// originated-routes-only initial state, rounds[k] the state after round k.
// Unchanged nodes share their previous round's map pointer, so memory
// cost is proportional to RIB churn, not rounds × nodes. The maps (and
// the candidates inside, which are immutable once installed) are never
// mutated after capture — the live per-node ribs are separate clones.
type simHistory struct {
	rounds     []historyRound
	iterations int
	converged  bool
}

type historyRound struct {
	ribs map[string]map[netcfg.Prefix]*candidate
	// changed names the nodes whose RIB changed in this round (empty for
	// round 0).
	changed map[string]bool
}

// ribAt returns a node's RIB after round k, reading past the recorded
// end as the converged fixpoint (a round that changes nothing can never
// resume changing, so the final state extends forever).
func (h *simHistory) ribAt(k int, name string) map[netcfg.Prefix]*candidate {
	if k >= len(h.rounds) {
		k = len(h.rounds) - 1
	}
	return h.rounds[k].ribs[name]
}

type simNode struct {
	name     string
	asn      uint32
	external bool
	dev      *netcfg.Device // nil for external stubs
	addrs    []uint32
	origin   []*netcfg.Route // self-originated routes

	// rib maps prefix -> selected best candidate.
	rib map[netcfg.Prefix]*candidate
	// sessions to peers.
	sessions []*session
}

type candidate struct {
	route *netcfg.Route
	from  string // peer node name ("" = originated locally)
}

type session struct {
	peer      *simNode
	peerAddr  uint32 // address we dial (for policy lookup on our side)
	localAddr uint32
	exportPol *netcfg.RoutePolicy
	importPol *netcfg.RoutePolicy
	envExport netcfg.PolicyEnv
	envImport netcfg.PolicyEnv
}

// NewSim returns an empty simulator.
func NewSim() *Sim {
	return &Sim{nodes: map[string]*simNode{}, byAddr: map[uint32]*simNode{}, maxIter: 64}
}

// AddDevice adds a configured router. Its interface addresses become
// dialable endpoints and its BGP network statements become originated
// routes.
func (s *Sim) AddDevice(name string, dev *netcfg.Device) error {
	if _, dup := s.nodes[name]; dup {
		return fmt.Errorf("duplicate node %s", name)
	}
	n := &simNode{name: name, rib: map[netcfg.Prefix]*candidate{}}
	initDevice(n, dev)
	for _, a := range n.addrs {
		s.byAddr[a] = n
	}
	s.nodes[name] = n
	s.added = append(s.added, name)
	return nil
}

// initDevice (re)derives a node's device-dependent state: ASN, originated
// routes, and interface addresses. byAddr maintenance is the caller's.
func initDevice(n *simNode, dev *netcfg.Device) {
	n.dev = dev
	n.asn = 0
	n.origin = nil
	n.addrs = nil
	if dev.BGP != nil {
		n.asn = dev.BGP.ASN
		for _, p := range dev.BGP.Networks {
			r := netcfg.NewRoute(p)
			r.Protocol = netcfg.ProtoBGP
			n.origin = append(n.origin, r)
		}
	}
	for _, ifc := range dev.Interfaces {
		if ifc.HasAddress && !ifc.Shutdown {
			n.addrs = append(n.addrs, ifc.Address.Addr)
		}
	}
}

// AddExternal adds an unconfigured stub speaker (an ISP or customer): it
// originates the given prefixes, accepts everything, and filters nothing.
func (s *Sim) AddExternal(name string, addr uint32, asn uint32, originates []netcfg.Prefix) error {
	if _, dup := s.nodes[name]; dup {
		return fmt.Errorf("duplicate node %s", name)
	}
	n := &simNode{name: name, asn: asn, external: true, rib: map[netcfg.Prefix]*candidate{}}
	n.addrs = append(n.addrs, addr)
	s.byAddr[addr] = n
	for _, p := range originates {
		r := netcfg.NewRoute(p)
		n.origin = append(n.origin, r)
	}
	s.nodes[name] = n
	s.added = append(s.added, name)
	return nil
}

// connect resolves sessions. A device-device session requires both sides
// to declare each other; a device-external session requires the device to
// declare the external stub's address.
func (s *Sim) connect() {
	for _, n := range s.nodes {
		n.sessions = nil
	}
	names := s.nodeNames()
	for _, name := range names {
		n := s.nodes[name]
		if n.dev == nil || n.dev.BGP == nil {
			continue
		}
		for _, nb := range n.dev.BGP.Neighbors {
			peer := s.byAddr[nb.Addr]
			if peer == nil || peer == n {
				continue
			}
			if !peer.external && !declares(peer, n) {
				continue // one-sided peering never comes up
			}
			sess := &session{
				peer:      peer,
				peerAddr:  nb.Addr,
				exportPol: n.dev.RoutePolicies[nb.ExportPolicy],
				importPol: n.dev.RoutePolicies[nb.ImportPolicy],
				envExport: n.dev,
				envImport: n.dev,
			}
			if nb.ExportPolicy != "" && sess.exportPol == nil {
				// Undefined policy: announce nothing (fail closed).
				sess.exportPol = &netcfg.RoutePolicy{Name: nb.ExportPolicy,
					Clauses: []*netcfg.PolicyClause{{Seq: 10, Action: netcfg.Deny}}}
			}
			if nb.ImportPolicy != "" && sess.importPol == nil {
				sess.importPol = &netcfg.RoutePolicy{Name: nb.ImportPolicy,
					Clauses: []*netcfg.PolicyClause{{Seq: 10, Action: netcfg.Deny}}}
			}
			if peer.external && len(n.addrs) == 0 {
				// No usable address (every interface shut down or
				// unaddressed): the stub has nothing to dial, so the
				// session never comes up, like one-sided peering.
				continue
			}
			n.sessions = append(n.sessions, sess)
			// External stubs get a mirror session (accept-all).
			if peer.external {
				peer.sessions = append(peer.sessions, &session{peer: n, peerAddr: n.addrs[0]})
			}
		}
	}
	// Deduplicate external mirror sessions.
	for _, n := range s.nodes {
		if !n.external {
			continue
		}
		seen := map[string]bool{}
		var uniq []*session
		for _, sess := range n.sessions {
			if !seen[sess.peer.name] {
				seen[sess.peer.name] = true
				uniq = append(uniq, sess)
			}
		}
		n.sessions = uniq
	}
}

func declares(n *simNode, peer *simNode) bool {
	if n.dev == nil || n.dev.BGP == nil {
		return true
	}
	for _, nb := range n.dev.BGP.Neighbors {
		for _, a := range peer.addrs {
			if nb.Addr == a {
				return true
			}
		}
	}
	return false
}

// Result holds the converged state.
type Result struct {
	// RIB maps node -> prefix -> best route (post-import attributes). The
	// routes are the simulator's installed candidates, shared with the
	// session's recorded history and with later Results of the same
	// session: they are read-only.
	RIB map[string]map[netcfg.Prefix]*netcfg.Route
	// Iterations is the number of propagation rounds to convergence.
	Iterations int
	// Converged is false if maxIter was hit (a propagation oscillation).
	Converged bool
}

// Run propagates announcements to a fixpoint and returns per-node RIBs.
// Rounds are change-driven (see step): a node announces only the entries
// that changed in the round before. Outside a persistent session (see
// RunIncremental) it records no history.
func (s *Sim) Run() *Result {
	s.connect()
	names := s.nodeNames()
	// Install originated routes; round 1 announces every one of them.
	fresh := make(map[string][]netcfg.Prefix, len(s.nodes))
	for name, n := range s.nodes {
		n.rib = map[netcfg.Prefix]*candidate{}
		for _, r := range n.origin {
			n.rib[r.Prefix] = &candidate{route: r.Clone(), from: ""}
		}
		if len(n.rib) > 0 {
			fresh[name] = sortedPrefixes(n.rib)
		}
	}
	var hist *simHistory
	if s.record {
		hist = &simHistory{}
		round0 := historyRound{ribs: make(map[string]map[netcfg.Prefix]*candidate, len(s.nodes))}
		for name, n := range s.nodes {
			round0.ribs[name] = cloneRib(n.rib)
		}
		hist.rounds = append(hist.rounds, round0)
	}
	iter := 0
	converged := false
	for ; iter < s.maxIter; iter++ {
		fresh = s.step(names, fresh)
		if len(fresh) == 0 {
			converged = true
			break
		}
		if hist != nil {
			prev := hist.rounds[len(hist.rounds)-1].ribs
			round := historyRound{
				ribs:    make(map[string]map[netcfg.Prefix]*candidate, len(s.nodes)),
				changed: make(map[string]bool, len(fresh)),
			}
			for name := range fresh {
				round.changed[name] = true
			}
			for name, n := range s.nodes {
				if round.changed[name] {
					round.ribs[name] = cloneRib(n.rib)
				} else {
					round.ribs[name] = prev[name]
				}
			}
			hist.rounds = append(hist.rounds, round)
		}
	}
	if hist != nil {
		hist.iterations = iter
		hist.converged = converged
	}
	s.history = hist
	s.dirty = nil
	s.coldNeeded = false
	res := &Result{RIB: make(map[string]map[netcfg.Prefix]*netcfg.Route, len(s.nodes)),
		Iterations: iter, Converged: converged}
	for name, n := range s.nodes {
		res.RIB[name] = ribRoutes(n.rib)
	}
	return res
}

// step performs one synchronous propagation round in which each node
// announces only fresh[name] — the sorted prefixes whose RIB entry changed
// in the round before (in round 1, every originated entry). It returns the
// same sets for the next round; an empty result is the fixpoint.
//
// Skipping unchanged entries leaves the RIBs, Iterations and Converged
// exactly as a step that re-announces every entry every round:
//   - deliver only ever replaces an entry with a strictly better one, and
//     better is a strict order on (local-pref, AS-path length, MED,
//     peer); a locally originated entry is never replaced. So a receiver's
//     entry for a prefix only improves over a run.
//   - Sessions and policies are fixed for the length of a run, so an entry
//     that did not change since it was last announced (in the round after
//     it was installed) yields exactly the message the receiver already
//     handled then — same route, same split-horizon, export, loop and
//     import outcome.
//   - Since then the receiver's entry has only improved, so that message
//     would not beat it: it is a no-op at any point of any later round,
//     and dropping it changes neither the RIB nor the order in which the
//     surviving messages apply.
//
// The surviving messages keep the full step's order: senders by name,
// each sender's sessions in declaration order, prefixes sorted.
func (s *Sim) step(names []string, fresh map[string][]netcfg.Prefix) map[string][]netcfg.Prefix {
	type incoming struct {
		to    *simNode
		from  *simNode
		route *netcfg.Route
	}
	var inbox []incoming
	for _, name := range names {
		prefixes := fresh[name]
		if len(prefixes) == 0 {
			continue
		}
		n := s.nodes[name]
		for _, sess := range n.sessions {
			sess := sess
			announce(n, sess, n.rib, prefixes, func(r *netcfg.Route) {
				inbox = append(inbox, incoming{to: sess.peer, from: n, route: r})
			})
		}
	}
	changed := map[string]map[netcfg.Prefix]bool{}
	for _, msg := range inbox {
		if deliver(msg.to, msg.to.rib, msg.from, msg.route) {
			set := changed[msg.to.name]
			if set == nil {
				set = map[netcfg.Prefix]bool{}
				changed[msg.to.name] = set
			}
			set[msg.route.Prefix] = true
		}
	}
	next := make(map[string][]netcfg.Prefix, len(changed))
	for name, set := range changed {
		prefixes := make([]netcfg.Prefix, 0, len(set))
		for p := range set {
			prefixes = append(prefixes, p)
		}
		sortPrefixes(prefixes)
		next[name] = prefixes
	}
	return next
}

// announce generates the routes node n offers on one session from the
// given round-start RIB snapshot, in the given (sorted) prefix order,
// calling emit for each route that survives split horizon and the export
// policy. Installed candidates are immutable, so the export policy reads
// c.route directly; every emitted route is a fresh copy.
func announce(n *simNode, sess *session, rib map[netcfg.Prefix]*candidate,
	prefixes []netcfg.Prefix, emit func(*netcfg.Route)) {
	for _, p := range prefixes {
		c := rib[p]
		// Split horizon: do not send a route back to the peer that
		// supplied it.
		if c.from == sess.peer.name {
			continue
		}
		var out *netcfg.Route
		if !n.external && sess.exportPol != nil {
			res := netcfg.EvalPolicy(sess.exportPol, sess.envExport, c.route)
			if !res.Permitted {
				continue
			}
			out = res.Route
		} else {
			out = c.route.Clone()
		}
		// eBGP: prepend sender AS, reset local preference.
		path := make([]uint32, len(out.ASPath)+1)
		path[0] = n.asn
		copy(path[1:], out.ASPath)
		out.ASPath = path
		out.LocalPref = 100
		emit(out)
	}
}

// deliver processes one incoming announcement against a receiver RIB —
// loop detection, import policy, best-path selection — and reports
// whether the RIB changed. The RIB is passed explicitly so the frontier
// replay can run the identical logic against a detached map. An entry is
// only ever replaced by a strictly better one, which is what lets step
// and replayReceive skip re-announcing unchanged entries.
func deliver(to *simNode, rib map[netcfg.Prefix]*candidate, from *simNode, r *netcfg.Route) bool {
	// AS-path loop detection.
	if to.asn != 0 && r.HasASInPath(to.asn) {
		return false
	}
	if !to.external {
		if sess := to.sessionTo(from); sess != nil && sess.importPol != nil {
			res := netcfg.EvalPolicy(sess.importPol, sess.envImport, r)
			if !res.Permitted {
				return false
			}
			r = res.Route
		}
	}
	cur := rib[r.Prefix]
	if cur != nil && cur.from == "" {
		return false // locally originated always wins
	}
	if cur != nil && !better(&candidate{route: r, from: from.name}, cur) {
		return false
	}
	// better is strict, so an installed candidate always differs from
	// the one it replaces.
	rib[r.Prefix] = &candidate{route: r, from: from.name}
	return true
}

// Update replaces one configured router's device inside a persistent
// session and marks it dirty for the next RunIncremental. It returns an
// error for a router the session does not know (a topology change —
// callers rebuild the session instead). An update that changes the
// router's interface addressing flags the session for a cold replay: an
// address reassignment can re-route *other* routers' neighbor
// declarations through the address table in ways the flooding frontier
// does not track.
func (s *Sim) Update(router string, dev *netcfg.Device) error {
	n := s.nodes[router]
	if n == nil || n.external {
		return fmt.Errorf("unknown router %s", router)
	}
	if dev == nil {
		return fmt.Errorf("nil device for %s", router)
	}
	oldAddrs := n.addrs
	initDevice(n, dev)
	if !addrsEqual(oldAddrs, n.addrs) {
		s.coldNeeded = true
		s.rebuildByAddr()
	}
	if s.dirty == nil {
		s.dirty = map[string]bool{}
	}
	s.dirty[router] = true
	return nil
}

// rebuildByAddr re-derives the address table in the original node-add
// order, exactly reproducing what the same sequence of AddDevice and
// AddExternal calls would have built.
func (s *Sim) rebuildByAddr() {
	s.byAddr = map[uint32]*simNode{}
	for _, name := range s.added {
		n := s.nodes[name]
		for _, a := range n.addrs {
			s.byAddr[a] = n
		}
	}
}

func addrsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunIncremental is the persistent-session entry point: it propagates the
// routers marked dirty by Update through the previous run's recorded
// trajectory, recomputing only the flooding frontier, and returns a
// Result byte-identical to what a cold Run over the same devices would
// produce. The first call of a session (and any call without a usable
// baseline — prior non-convergence, an addressing change, or no pending
// updates recorded against a cleared history) pays one cold run, which
// also records the round-by-round history the next call replays against.
//
// Correctness rests on exact replay, not route withdrawal: the simulator's
// monotone no-withdrawal semantics make the converged RIB depend on the
// whole announcement history, so the frontier replay recomputes each
// affected node round by round with the cold step's exact per-receiver
// message order, and reuses the recorded round state for every node whose
// inputs provably match the previous run.
func (s *Sim) RunIncremental() *Result {
	s.record = true
	if s.history == nil || !s.history.converged || s.coldNeeded {
		return s.Run()
	}
	if len(s.dirty) == 0 {
		return s.resultFromHistory()
	}
	return s.replay()
}

// replay recomputes the flooding frontier against the recorded history.
//
// Terminology: a node is *structurally dirty* when its own policies — or
// a session touching a dirty router — may differ from the previous run
// (the dirty routers plus their old and new session peers); it is *value
// dirty* at round k when its round-k RIB differs from the recorded one.
// Round k recomputes exactly the structurally dirty nodes, the nodes
// value-dirty at k-1, and the session successors of the latter; every
// other node's inputs are provably identical to the previous run, so its
// recorded round-k state is reused verbatim (and the frontier contracts
// again when a recomputed RIB re-converges onto the recorded one).
func (s *Sim) replay() *Result {
	old := s.history
	// Structural dirt: the updated routers plus their session adjacency in
	// the pre-update session graph (still in place) and the post-update
	// one.
	structDirty := map[string]bool{}
	for name := range s.dirty {
		structDirty[name] = true
	}
	s.addAdjacency(structDirty, s.dirty)
	s.connect()
	s.addAdjacency(structDirty, s.dirty)

	names := s.nodeNames()
	newHist := &simHistory{}
	// Round 0: dirty routers re-install their originated routes; everyone
	// else matches the recorded initial state.
	round0 := historyRound{ribs: make(map[string]map[netcfg.Prefix]*candidate, len(s.nodes))}
	for _, name := range names {
		round0.ribs[name] = old.rounds[0].ribs[name]
	}
	valueDirty := map[string]bool{}
	for name := range s.dirty {
		n := s.nodes[name]
		rib := map[netcfg.Prefix]*candidate{}
		for _, r := range n.origin {
			rib[r.Prefix] = &candidate{route: r.Clone(), from: ""}
		}
		round0.ribs[name] = rib
		if !ribsEqual(rib, old.ribAt(0, name)) {
			valueDirty[name] = true
		}
	}
	newHist.rounds = append(newHist.rounds, round0)

	iter := 0
	converged := false
	for k := 1; k <= s.maxIter; k++ {
		prevRibs := newHist.rounds[k-1].ribs
		fresh := &announcements{start: prevRibs, sets: map[string][]netcfg.Prefix{}}
		if k >= 2 {
			fresh.before = newHist.rounds[k-2].ribs
		}
		// The recompute set for this round.
		recompute := map[string]bool{}
		for name := range structDirty {
			recompute[name] = true
		}
		for name := range valueDirty {
			recompute[name] = true
			for _, sess := range s.nodes[name].sessions {
				recompute[sess.peer.name] = true
			}
		}
		roundChanged := map[string]bool{}
		curNew := map[string]map[netcfg.Prefix]*candidate{}
		for _, name := range names {
			if !recompute[name] {
				continue
			}
			rib := s.replayReceive(s.nodes[name], names, fresh)
			curNew[name] = rib
			if !ribsEqual(rib, prevRibs[name]) {
				roundChanged[name] = true
			}
		}
		// Nodes outside the recompute set follow the recorded trajectory
		// verbatim, including whether they changed this round.
		if k < len(old.rounds) {
			for name := range old.rounds[k].changed {
				if !recompute[name] {
					roundChanged[name] = true
				}
			}
		}
		if len(roundChanged) == 0 {
			converged = true
			break
		}
		iter = k
		round := historyRound{
			ribs:    make(map[string]map[netcfg.Prefix]*candidate, len(s.nodes)),
			changed: roundChanged,
		}
		nextDirty := map[string]bool{}
		for _, name := range names {
			switch {
			case curNew[name] != nil:
				round.ribs[name] = curNew[name]
				if !ribsEqual(curNew[name], old.ribAt(k, name)) {
					nextDirty[name] = true
				}
			case k < len(old.rounds):
				round.ribs[name] = old.rounds[k].ribs[name]
			default:
				round.ribs[name] = prevRibs[name]
			}
		}
		newHist.rounds = append(newHist.rounds, round)
		valueDirty = nextDirty
	}
	if !converged {
		iter = s.maxIter
	}
	newHist.iterations = iter
	newHist.converged = converged
	s.history = newHist
	s.dirty = nil
	// Re-materialize the live ribs (detached from the shared history maps).
	final := newHist.rounds[len(newHist.rounds)-1].ribs
	for _, name := range names {
		s.nodes[name].rib = cloneRib(final[name])
	}
	return s.resultFromHistory()
}

// replayReceive recomputes one node's next-round RIB exactly as the cold
// step would: messages from every in-neighbor, generated from the
// senders' round-start RIBs and change-driven announcement sets, processed
// in the cold inbox's per-receiver order (senders sorted by name, each
// sender's sessions in declaration order, prefixes sorted). Per-receiver
// processing is independent in the cold step — a round's inbox is built
// entirely from round-start state and only the receiver's own RIB mutates
// while its messages apply — which is what makes recomputing one receiver
// in isolation exact.
func (s *Sim) replayReceive(x *simNode, names []string, fresh *announcements) map[netcfg.Prefix]*candidate {
	rib := cloneRib(fresh.start[x.name])
	for _, yname := range names {
		y := s.nodes[yname]
		for _, sess := range y.sessions {
			if sess.peer != x {
				continue
			}
			announce(y, sess, fresh.start[yname], fresh.of(yname), func(r *netcfg.Route) {
				deliver(x, rib, y, r)
			})
		}
	}
	return rib
}

// announcements lazily derives each sender's announcement set for one
// replayed round k: the prefixes whose candidate pointer differs between
// rounds k-2 (before) and k-1 (start) of the new trajectory, or every
// entry in round 1 (before nil). Installed candidates are immutable, so a
// pointer difference can over-report a change (an equal entry reached
// through another copy of the map) but never miss one, and an
// over-reported entry is a no-op re-announcement by step's argument.
type announcements struct {
	start, before map[string]map[netcfg.Prefix]*candidate
	sets          map[string][]netcfg.Prefix
}

func (a *announcements) of(name string) []netcfg.Prefix {
	if prefixes, ok := a.sets[name]; ok {
		return prefixes
	}
	rib := a.start[name]
	var prefixes []netcfg.Prefix
	if a.before == nil {
		prefixes = sortedPrefixes(rib)
	} else {
		prev := a.before[name]
		for p, c := range rib {
			if prev[p] != c {
				prefixes = append(prefixes, p)
			}
		}
		sortPrefixes(prefixes)
	}
	a.sets[name] = prefixes
	return prefixes
}

// addAdjacency adds every session peer of the dirty set — in either
// direction — to out, reading the session graph as currently connected.
func (s *Sim) addAdjacency(out map[string]bool, dirty map[string]bool) {
	for name, n := range s.nodes {
		for _, sess := range n.sessions {
			if dirty[name] {
				out[sess.peer.name] = true
			}
			if dirty[sess.peer.name] {
				out[name] = true
			}
		}
	}
}

// resultFromHistory rebuilds the Result of the session's recorded run.
func (s *Sim) resultFromHistory() *Result {
	h := s.history
	final := h.rounds[len(h.rounds)-1].ribs
	res := &Result{
		RIB:        make(map[string]map[netcfg.Prefix]*netcfg.Route, len(s.nodes)),
		Iterations: h.iterations,
		Converged:  h.converged,
	}
	for name := range s.nodes {
		res.RIB[name] = ribRoutes(final[name])
	}
	return res
}

// ribRoutes exposes a RIB's installed routes without copying them; see
// Result.RIB.
func ribRoutes(rib map[netcfg.Prefix]*candidate) map[netcfg.Prefix]*netcfg.Route {
	out := make(map[netcfg.Prefix]*netcfg.Route, len(rib))
	for p, c := range rib {
		out[p] = c.route
	}
	return out
}

func cloneRib(rib map[netcfg.Prefix]*candidate) map[netcfg.Prefix]*candidate {
	out := make(map[netcfg.Prefix]*candidate, len(rib))
	for p, c := range rib {
		out[p] = c
	}
	return out
}

// ribsEqual compares two RIBs by content: same prefixes, and per prefix
// the same supplying peer and route attributes — the same equality the
// cold step's change detection uses.
func ribsEqual(a, b map[netcfg.Prefix]*candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for p, ca := range a {
		cb := b[p]
		if cb == nil || ca.from != cb.from || !routesEqual(ca.route, cb.route) {
			return false
		}
	}
	return true
}

func (n *simNode) sessionTo(peer *simNode) *session {
	for _, sess := range n.sessions {
		if sess.peer == peer {
			return sess
		}
	}
	return nil
}

// better implements BGP best-path comparison between a new candidate and
// the incumbent.
func better(a, b *candidate) bool {
	if a.route.LocalPref != b.route.LocalPref {
		return a.route.LocalPref > b.route.LocalPref
	}
	if len(a.route.ASPath) != len(b.route.ASPath) {
		return len(a.route.ASPath) < len(b.route.ASPath)
	}
	if a.route.MED != b.route.MED {
		return a.route.MED < b.route.MED
	}
	return a.from < b.from
}

func routesEqual(a, b *netcfg.Route) bool {
	if a.Prefix != b.Prefix || a.MED != b.MED || a.LocalPref != b.LocalPref ||
		len(a.ASPath) != len(b.ASPath) || len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	for c := range a.Communities {
		if !b.Communities[c] {
			return false
		}
	}
	return true
}

func (s *Sim) nodeNames() []string {
	names := make([]string, 0, len(s.nodes))
	for n := range s.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedPrefixes(rib map[netcfg.Prefix]*candidate) []netcfg.Prefix {
	out := make([]netcfg.Prefix, 0, len(rib))
	for p := range rib {
		out = append(out, p)
	}
	sortPrefixes(out)
	return out
}

// sortPrefixes orders prefixes by address, then length: the order in
// which a node announces its entries.
func sortPrefixes(ps []netcfg.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr != ps[j].Addr {
			return ps[i].Addr < ps[j].Addr
		}
		return ps[i].Len < ps[j].Len
	})
}

// CanReach reports whether node has a route covering the prefix.
func (r *Result) CanReach(node string, p netcfg.Prefix) bool {
	rib := r.RIB[node]
	if rib == nil {
		return false
	}
	for got := range rib {
		if got.Contains(p) || got == p {
			return true
		}
	}
	return false
}
