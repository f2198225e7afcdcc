package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/symbolic"
	"repro/internal/topology"
)

// incrementalProbes is how many single-router changes the incremental
// global-check replay times per output.
const incrementalProbes = 4

// replays holds per-call latencies of public layer functions, replayed by
// the benchmark on the outputs of a traced run. A slice stays empty when
// the workload bypasses that layer.
type replays struct {
	checkUS, acceptUS, parseUS, diffUS []float64
	coldMS, incrementalMS              []float64
}

// replay times direct layer calls on the run's distinct outputs, in the
// order the jobs produced them, until budget is spent; the first output is
// always replayed.
func replay(e *env, outs *outputs, budget time.Duration) (*replays, error) {
	r := &replays{}
	begin := time.Now()
	for i, o := range outs.list {
		if i > 0 && time.Since(begin) >= budget {
			break
		}
		in := &e.jobs[o.input]
		if in.topo == nil {
			r.translation(e.source, o.configs[translationKey])
			continue
		}
		if err := r.noTransit(in.topo, o.configs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func sinceUS(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e3 }
func sinceMS(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

// parse times one cold parse through a fresh stanza-enabled parse cache,
// the parser the loop's verifier uses.
func (r *replays) parse(text string) *netcfg.Device {
	pc := batfish.NewParseCache()
	start := time.Now()
	p := pc.Parse(text)
	r.parseUS = append(r.parseUS, sinceUS(start))
	return p.Device
}

// noTransit replays one synthesis output: a parse per configuration,
// lightyear.Check per local requirement, symbolic.AcceptSpace per route
// policy, one cold global check, and incremental global checks that each
// swap in one re-parsed router.
func (r *replays) noTransit(topo *topology.Topology, configs map[string]string) error {
	devs := make(map[string]*netcfg.Device, len(topo.Routers))
	for _, rt := range topo.Routers {
		devs[rt.Name] = r.parse(configs[rt.Name])
	}
	for _, req := range lightyear.SpecFor(topo) {
		start := time.Now()
		lightyear.Check(devs[req.Router], req)
		r.checkUS = append(r.checkUS, sinceUS(start))
	}
	for _, rt := range topo.Routers {
		dev := devs[rt.Name]
		names := make([]string, 0, len(dev.RoutePolicies))
		for name := range dev.RoutePolicies {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			start := time.Now()
			symbolic.AcceptSpace(dev.RoutePolicies[name], dev)
			r.acceptUS = append(r.acceptUS, sinceUS(start))
		}
	}
	start := time.Now()
	if _, err := lightyear.CheckGlobalNoTransit(topo, devs); err != nil {
		return fmt.Errorf("replay cold global check: %w", err)
	}
	r.coldMS = append(r.coldMS, sinceMS(start))

	gs := lightyear.NewGlobalSession(topo)
	if _, err := gs.Check(devs, nil); err != nil {
		return fmt.Errorf("replay global session: %w", err)
	}
	for k := 0; k < incrementalProbes; k++ {
		name := topo.Routers[k*len(topo.Routers)/incrementalProbes].Name
		next := make(map[string]*netcfg.Device, len(devs))
		for n, d := range devs {
			next[n] = d
		}
		next[name] = batfish.ParseAndCheck(configs[name]).Device
		start := time.Now()
		if _, err := gs.Check(next, []string{name}); err != nil {
			return fmt.Errorf("replay incremental global check: %w", err)
		}
		r.incrementalMS = append(r.incrementalMS, sinceMS(start))
		devs = next
	}
	return nil
}

// translation replays one translation output: cold parses of the Cisco
// source and the Junos translation, and the Campion diff between them.
func (r *replays) translation(source, translation string) {
	orig := r.parse(source)
	trans := r.parse(translation)
	start := time.Now()
	campion.Diff(orig, trans)
	r.diffUS = append(r.diffUS, sinceUS(start))
}
