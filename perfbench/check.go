package main

import (
	"fmt"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/topology"
)

// checkOutput checks one job's output independently of the loop that
// produced it, with fresh parses and none of the loop's caches.
func checkOutput(e *env, in *jobInput, configs map[string]string) error {
	if in.topo != nil {
		return checkNoTransit(in.topo, configs)
	}
	return checkTranslation(e.sourceDev, configs[translationKey])
}

// checkNoTransit re-parses every final configuration, requires a clean
// syntax check, and runs a cold whole-network BGP simulation of the
// global no-transit policy.
func checkNoTransit(topo *topology.Topology, configs map[string]string) error {
	devs := make(map[string]*netcfg.Device, len(topo.Routers))
	for _, r := range topo.Routers {
		text, ok := configs[r.Name]
		if !ok {
			return fmt.Errorf("router %s has no configuration", r.Name)
		}
		p := batfish.ParseAndCheck(text)
		if len(p.CheckWarnings) > 0 {
			return fmt.Errorf("router %s: %s", r.Name, p.CheckWarnings[0])
		}
		devs[r.Name] = p.Device
	}
	g, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		return err
	}
	if !g.OK() {
		return fmt.Errorf("global no-transit fails: converged=%v, %d transit paths, %d missing reachabilities",
			g.Converged, len(g.Violations), len(g.MissingReachability))
	}
	return nil
}

// checkTranslation requires a Junos translation that parses cleanly and
// that Campion finds no difference in against the Cisco source.
func checkTranslation(source *netcfg.Device, translation string) error {
	if batfish.DetectVendor(translation) != netcfg.VendorJuniper {
		return fmt.Errorf("translation is not a Junos configuration")
	}
	p := batfish.ParseAndCheck(translation)
	if len(p.CheckWarnings) > 0 {
		return fmt.Errorf("translation: %s", p.CheckWarnings[0])
	}
	if diffs := campion.Diff(source, p.Device); len(diffs) > 0 {
		return fmt.Errorf("translation differs from the source: %s (%d differences)", diffs[0], len(diffs))
	}
	return nil
}
