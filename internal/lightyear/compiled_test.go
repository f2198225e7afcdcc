package lightyear

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/batfish"
	"repro/internal/netcfg"
	"repro/internal/netgen"
)

func parseClean(t *testing.T, text string) *netcfg.Device {
	t.Helper()
	dev, warns := batfish.ParseConfig(text)
	if len(warns) > 0 {
		t.Fatalf("config does not parse cleanly: %v", warns)
	}
	return dev
}

// assertUntaggedWitness checks that an ingress violation's witness really
// is accepted by the policy without the required community.
func assertUntaggedWitness(t *testing.T, dev *netcfg.Device, v Violation) {
	t.Helper()
	if v.Witness == nil {
		t.Fatal("violation carries no witness")
	}
	res := netcfg.EvalPolicy(dev.RoutePolicies[v.Requirement.Policy], dev, v.Witness)
	if !res.Permitted || res.Route.HasCommunity(v.Requirement.Community) {
		t.Fatalf("witness %s is not accepted untagged (permitted=%v)", v.Witness, res.Permitted)
	}
}

// TestIngressCheckSamplesPastDenyEntry: the clause's heuristic sample
// (the first permit entry's shortest prefix, 10.0.0.0/8) is denied by the
// earlier deny entry, yet every longer prefix up to /24 is accepted
// untagged. The check must find one of them.
func TestIngressCheckSamplesPastDenyEntry(t *testing.T) {
	dev := parseClean(t, `hostname R1
ip prefix-list P seq 5 deny 10.0.0.0/8
ip prefix-list P seq 10 permit 10.0.0.0/8 le 24
route-map ADD_COMM_ISP1 permit 10
 match ip address prefix-list P
`)
	req := Requirement{Kind: IngressAddsCommunity, Router: "R1",
		Policy: "ADD_COMM_ISP1", Community: netgen.AttachmentCommunity(1)}
	v, bad := Check(dev, req)
	if !bad {
		t.Fatal("an untagged ingress behind a prefix-list deny entry passed")
	}
	assertUntaggedWitness(t, dev, v)
	if !strings.Contains(v.Explanation, "without adding the community") {
		t.Errorf("explanation: %s", v.Explanation)
	}
}

// TestIngressCheckSamplesShadowedClause: the bare permit 20 has the
// default heuristic sample 150.0.0.0/16, which clause 10 catches and
// tags; every other route reaches clause 20 and leaves untagged.
func TestIngressCheckSamplesShadowedClause(t *testing.T) {
	dev := parseClean(t, `hostname R1
ip prefix-list ISP1_NET seq 5 permit 150.0.0.0/16
route-map ADD_COMM_ISP1 permit 10
 match ip address prefix-list ISP1_NET
 set community 65000:1 additive
route-map ADD_COMM_ISP1 permit 20
`)
	req := Requirement{Kind: IngressAddsCommunity, Router: "R1",
		Policy: "ADD_COMM_ISP1", Community: netcfg.MustCommunity("65000:1")}
	v, bad := Check(dev, req)
	if !bad {
		t.Fatal("an untagged catch-all clause shadowed at its default sample passed")
	}
	assertUntaggedWitness(t, dev, v)
	if v.Witness.Prefix == netcfg.MustPrefix("150.0.0.0/16") {
		t.Errorf("witness %s is the shadowed sample", v.Witness.Prefix)
	}
}

// TestIngressCheckSamplesPastASPathDeny: an AS-path match compiles to
// "any route", so the deny 10 clause leaves clause 20 no accept region.
// Routes with another AS path still reach clause 20 and leave untagged;
// the clause's heuristic sample (empty AS path) must still be tried.
func TestIngressCheckSamplesPastASPathDeny(t *testing.T) {
	dev := parseClean(t, `hostname R1
route-map ADD_COMM_ISP1 deny 10
 match as-path _65500_
route-map ADD_COMM_ISP1 permit 20
`)
	req := Requirement{Kind: IngressAddsCommunity, Router: "R1",
		Policy: "ADD_COMM_ISP1", Community: netgen.AttachmentCommunity(1)}
	v, bad := Check(dev, req)
	if !bad {
		t.Fatal("an untagged clause behind an AS-path deny passed")
	}
	assertUntaggedWitness(t, dev, v)
}

// compiledFixture is a router with one ingress policy and one egress
// filter over three ISP tags; dropped names the community lists the
// filter denies, so a revision can break the filter without touching the
// route-map's own stanza.
func compiledFixture(dropped ...int) string {
	var b strings.Builder
	b.WriteString("hostname R1\n")
	b.WriteString("ip prefix-list ISP1_NET seq 5 permit 150.0.0.0/16 le 24\n")
	for i := 1; i <= 3; i++ {
		fmt.Fprintf(&b, "ip community-list standard TAG%d permit %s\n", i, netgen.AttachmentCommunity(i))
	}
	b.WriteString("route-map ADD_COMM_ISP1 permit 10\n match ip address prefix-list ISP1_NET\n")
	fmt.Fprintf(&b, " set community %s additive\n", netgen.AttachmentCommunity(1))
	for i, list := range dropped {
		fmt.Fprintf(&b, "route-map FILTER_COMM_OUT_ISP1 deny %d\n match community TAG%d\n", 10*(i+1), list)
	}
	b.WriteString("route-map FILTER_COMM_OUT_ISP1 permit 100\n")
	return b.String()
}

func compiledFixtureReqs() []Requirement {
	reqs := []Requirement{{Kind: IngressAddsCommunity, Router: "R1",
		Policy: "ADD_COMM_ISP1", Community: netgen.AttachmentCommunity(1)}}
	var all []netcfg.Community
	for i := 1; i <= 3; i++ {
		all = append(all, netgen.AttachmentCommunity(i))
		reqs = append(reqs, Requirement{Kind: EgressDropsCommunity, Router: "R1",
			Policy: "FILTER_COMM_OUT_ISP1", Community: netgen.AttachmentCommunity(i)})
	}
	reqs = append(reqs,
		Requirement{Kind: EgressPermitsClean, Router: "R1", Policy: "FILTER_COMM_OUT_ISP1", Communities: all},
		Requirement{Kind: EgressDropsCommunity, Router: "R1", Policy: "UNDEFINED", Community: all[0]})
	return reqs
}

// TestCheckParsedConcurrentReaders runs many goroutines' checks against
// one shared parse product, as the batfishd batch pool and parallel
// repair workers do: every verdict must equal the fresh-compile verdict.
// Run under -race it also proves the compiled-policy table race-clean.
func TestCheckParsedConcurrentReaders(t *testing.T) {
	text := compiledFixture(2) // drops TAG2 only: TAG1 and TAG3 leak
	reqs := compiledFixtureReqs()
	fresh := batfish.ParseAndCheck(text).Device
	want := make([]string, len(reqs))
	for i, req := range reqs {
		v, bad := Check(fresh, req)
		want[i] = fmt.Sprintf("%v %s %v", bad, v.Explanation, v.Witness)
	}
	shared := batfish.NewParseCache().Parse(text)
	var wg sync.WaitGroup
	errs := make(chan string, 16*len(reqs))
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + g) % len(reqs)
				v, bad := CheckParsed(shared, reqs[i])
				if got := fmt.Sprintf("%v %s %v", bad, v.Explanation, v.Witness); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d, requirement %d: got %q, want %q", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCompiledPolicyIsPerRevision: two revisions of one router share the
// egress route-map's stanza text but not its community lists' meaning.
// The second revision must be judged on its own lists, never on the
// first revision's compiled filter, and the first must keep its verdict.
func TestCompiledPolicyIsPerRevision(t *testing.T) {
	pc := batfish.NewParseCache()
	leak := Requirement{Kind: EgressDropsCommunity, Router: "R1",
		Policy: "FILTER_COMM_OUT_ISP1", Community: netgen.AttachmentCommunity(2)}
	rev1 := compiledFixture(2, 3)
	if v, bad := CheckParsed(pc.Parse(rev1), leak); bad {
		t.Fatalf("revision 1 flagged: %s", v.Explanation)
	}
	// Revision 2 repoints TAG2 at an unrelated community: the route-map
	// text is unchanged, but it no longer drops ISP2's tag.
	rev2 := strings.Replace(rev1,
		"TAG2 permit "+netgen.AttachmentCommunity(2).String(), "TAG2 permit 65000:77", 1)
	if rev2 == rev1 {
		t.Fatal("revision 2 did not change the community list")
	}
	if _, bad := CheckParsed(pc.Parse(rev2), leak); !bad {
		t.Fatal("revision 2 was answered from revision 1's compiled filter")
	}
	if v, bad := CheckParsed(pc.Parse(rev1), leak); bad {
		t.Fatalf("revision 1 flagged after revision 2: %s", v.Explanation)
	}
}
