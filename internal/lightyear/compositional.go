package lightyear

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/netcfg"
	"repro/internal/topology"
)

// ErrCoverageIncomplete marks a topology the compositional fast path
// cannot stand in for the full simulation on: its derived local
// specification does not discharge the local-implies-global proof
// obligation (CoverageComplete). Callers fall back to the simulation.
var ErrCoverageIncomplete = errors.New("compositional check inapplicable: local spec coverage incomplete")

// CompositionalOptions parameterize the seeded sampled falsification of
// CheckCompositionalNoTransit.
type CompositionalOptions struct {
	// Samples bounds how many egress filters the falsification pass
	// neutralizes; <= 0 samples min(4, filters).
	Samples int
	// Seed keys the deterministic filter sampling; 0 means seed 1. The
	// same seed always selects the same filters on the same topology.
	Seed int64
	// RecentRouters biases the sample toward egress policies on the named
	// routers — typically the ones a repair loop just touched, where a
	// filter is likeliest to have regressed. Targets on recent routers
	// fill the sample budget first (seeded, like the rest); any remaining
	// budget falls on the other targets. Empty samples unbiased, exactly
	// as without the field; the bias never changes the sample size or the
	// determinism, only which filters the budget lands on.
	RecentRouters []string
}

// CheckCompositionalNoTransit is the verified-local-specs fast path for
// the global no-transit check: instead of simulating the whole network's
// BGP (cost super-linear in the network, the scale wall at hundreds of
// routers), it discharges the policy compositionally:
//
//  1. Coverage — CoverageComplete proves the derived local specification
//     covers every attachment pair, i.e. local obligations compose into
//     the global no-transit guarantee (the proof obligation the fuzz
//     oracle exercises end to end on every campaign). Incomplete coverage
//     returns ErrCoverageIncomplete and the caller falls back to the
//     simulation.
//  2. Local obligations — every requirement of the spec must hold on the
//     final parse products (CheckAll, sharing each revision's compiled
//     policies with the repair loop that verified it); failures surface
//     as Violations.
//  3. Reachability, structurally — every topology-declared BGP session
//     must exist on its device, every connected network must be
//     announced, and every ISP attachment's ingress policy must admit the
//     ISP's own originated route (the clean-egress obligation of the spec
//     covers the export half), so the positive ISP<->customer
//     reachability the simulation would verify holds hop by hop.
//  4. Seeded sampled falsification — a deterministic sample of egress
//     filters is neutralized (replaced by permit-all on a copy of the
//     device) and the local checks must flag each mutant; a probe no
//     local check catches means the obligations are vacuous here, which
//     is reported as a violation rather than silently trusted.
//
// The result mirrors CheckGlobalNoTransit's verdict on every registry
// scenario (the agreement gate pins this); the full simulation remains
// the default and the authority wherever the two could diverge.
func CheckCompositionalNoTransit(t *topology.Topology, parsed map[string]*netcfg.Parsed,
	opts CompositionalOptions) (*GlobalResult, error) {
	reqs := SpecFor(t)
	if err := CoverageComplete(t, reqs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCoverageIncomplete, err)
	}
	out := &GlobalResult{Converged: true, Method: MethodCompositional}
	devs := make(map[string]*netcfg.Device, len(parsed))
	for name, p := range parsed {
		devs[name] = p.Device
	}

	// Local obligations on the final devices.
	for _, v := range CheckAll(reqs, parsed) {
		out.Violations = append(out.Violations, v.String())
	}

	// Structural reachability: sessions up, networks announced.
	for i := range t.Routers {
		spec := &t.Routers[i]
		dev := devs[spec.Name]
		if dev == nil {
			return nil, fmt.Errorf("router %s has no configuration", spec.Name)
		}
		if dev.BGP == nil {
			out.MissingReachability = append(out.MissingReachability,
				fmt.Sprintf("%s runs no BGP, so nothing can reach through it", spec.Name))
			continue
		}
		for _, nb := range spec.Neighbors {
			addr, err := netcfg.ParseIP(nb.PeerIP)
			if err != nil {
				return nil, fmt.Errorf("neighbor %s of %s: %w", nb.PeerName, spec.Name, err)
			}
			if dev.BGP.Neighbor(addr) == nil {
				out.MissingReachability = append(out.MissingReachability,
					fmt.Sprintf("%s declares no BGP session toward %s (%s)",
						spec.Name, nb.PeerName, nb.PeerIP))
			}
		}
		announced := map[netcfg.Prefix]bool{}
		for _, p := range dev.BGP.Networks {
			announced[p] = true
		}
		for _, ns := range spec.Networks {
			p, err := netcfg.ParsePrefix(ns)
			if err != nil {
				return nil, fmt.Errorf("network %q of %s: %w", ns, spec.Name, err)
			}
			if !announced[p] {
				out.MissingReachability = append(out.MissingReachability,
					fmt.Sprintf("%s does not announce its connected network %s", spec.Name, p))
			}
		}
	}

	// Ingress liveness: each attachment's ingress policy must admit the
	// ISP's own originated route, or the tagged-at-ingress obligations
	// hold vacuously while the ISP is cut off. Missing policies are
	// already violations via CheckAll; unprobeable attachments (no
	// declared stub prefixes) are left to the egress obligations.
	for _, a := range ISPAttachments(t) {
		dev := devs[a.Router]
		if dev == nil || len(a.Peer.Prefixes) == 0 {
			continue
		}
		pol := dev.RoutePolicies[a.IngressPolicy()]
		if pol == nil {
			continue
		}
		p, err := netcfg.ParsePrefix(a.Peer.Prefixes[0])
		if err != nil {
			return nil, fmt.Errorf("attachment %s: prefix %q: %w", a.Ref(DirIn), a.Peer.Prefixes[0], err)
		}
		probe := netcfg.NewRoute(p)
		probe.ASPath = []uint32{a.Peer.PeerAS}
		if res := netcfg.EvalPolicy(pol, dev, probe); !res.Permitted {
			out.MissingReachability = append(out.MissingReachability,
				fmt.Sprintf("%s's ingress policy %s denies %s's own route %s",
					a.Router, a.IngressPolicy(), a.Peer.PeerName, p))
		}
	}

	// Seeded sampled falsification over the egress filters the spec
	// obligates (hub-keyed on stars, attachment-keyed elsewhere).
	for _, probe := range sampleFalsificationTargets(reqs, opts) {
		out.FalsificationProbes = append(out.FalsificationProbes,
			probe.router+":"+probe.policy)
		dev := devs[probe.router]
		if dev == nil {
			continue
		}
		if !falsifiableLocally(dev, reqs, probe) {
			out.Violations = append(out.Violations, fmt.Sprintf(
				"falsification probe: neutralizing %s's egress filter %s raised no local violation",
				probe.router, probe.policy))
		}
	}
	return out, nil
}

// falsificationTarget is one egress filter the sampling pass neutralizes.
type falsificationTarget struct {
	router, policy string
}

// sampleFalsificationTargets deterministically samples the distinct
// (router, egress-policy) pairs the specification obligates: the same
// seed always yields the same sample on the same requirement list,
// returned in topology (requirement) order.
func sampleFalsificationTargets(reqs []Requirement, opts CompositionalOptions) []falsificationTarget {
	var targets []falsificationTarget
	seen := map[falsificationTarget]bool{}
	for _, r := range reqs {
		if r.Kind != EgressDropsCommunity {
			continue
		}
		tg := falsificationTarget{router: r.Router, policy: r.Policy}
		if !seen[tg] {
			seen[tg] = true
			targets = append(targets, tg)
		}
	}
	n := opts.Samples
	if n <= 0 {
		n = 4
	}
	if n >= len(targets) {
		return targets
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var picks []int
	if len(opts.RecentRouters) > 0 {
		// Coverage-guided: spend the budget on recently-repaired routers'
		// filters first, then on the rest. Both halves sample through the
		// same seeded generator, so a given (seed, recency) pair always
		// yields the same filters.
		recent := make(map[string]bool, len(opts.RecentRouters))
		for _, r := range opts.RecentRouters {
			recent[r] = true
		}
		var hot, cold []int
		for i := range targets {
			if recent[targets[i].router] {
				hot = append(hot, i)
			} else {
				cold = append(cold, i)
			}
		}
		if len(hot) >= n {
			for _, j := range rng.Perm(len(hot))[:n] {
				picks = append(picks, hot[j])
			}
		} else {
			picks = append(picks, hot...)
			for _, j := range rng.Perm(len(cold))[:n-len(hot)] {
				picks = append(picks, cold[j])
			}
		}
	} else {
		picks = rng.Perm(len(targets))[:n]
	}
	sort.Ints(picks)
	out := make([]falsificationTarget, 0, n)
	for _, i := range picks {
		out = append(out, targets[i])
	}
	return out
}

// falsifiableLocally neutralizes one egress filter on a copy of its
// device — the policy is replaced with a single permit-everything clause —
// and reports whether any of the filter's drop obligations flags the
// mutant. The original device map is never modified.
func falsifiableLocally(dev *netcfg.Device, reqs []Requirement, probe falsificationTarget) bool {
	mut := *dev
	mut.RoutePolicies = make(map[string]*netcfg.RoutePolicy, len(dev.RoutePolicies))
	for name, pol := range dev.RoutePolicies {
		mut.RoutePolicies[name] = pol
	}
	mut.RoutePolicies[probe.policy] = &netcfg.RoutePolicy{
		Name:    probe.policy,
		Clauses: []*netcfg.PolicyClause{{Seq: 10, Action: netcfg.Permit}},
	}
	for _, r := range reqs {
		if r.Kind != EgressDropsCommunity || r.Router != probe.router || r.Policy != probe.policy {
			continue
		}
		if _, violated := Check(&mut, r); violated {
			return true
		}
	}
	return false
}
