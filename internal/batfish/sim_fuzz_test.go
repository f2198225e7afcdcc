package batfish

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/netcfg"
)

// runFullReannounce is the differential oracle for change-driven rounds:
// the propagation loop in which every node re-announces its whole RIB on
// every session in every round. It shares
// announce and deliver with the production path, so it pins exactly the
// claim that skipping unchanged entries changes nothing. It records no
// history; run it on a Sim of its own.
func (s *Sim) runFullReannounce() *Result {
	s.connect()
	for _, n := range s.nodes {
		n.rib = map[netcfg.Prefix]*candidate{}
		for _, r := range n.origin {
			n.rib[r.Prefix] = &candidate{route: r.Clone(), from: ""}
		}
	}
	names := s.nodeNames()
	type incoming struct {
		to    *simNode
		from  *simNode
		route *netcfg.Route
	}
	iter := 0
	converged := false
	for ; iter < s.maxIter; iter++ {
		var inbox []incoming
		for _, name := range names {
			n := s.nodes[name]
			prefixes := sortedPrefixes(n.rib)
			for _, sess := range n.sessions {
				sess := sess
				announce(n, sess, n.rib, prefixes, func(r *netcfg.Route) {
					inbox = append(inbox, incoming{to: sess.peer, from: n, route: r})
				})
			}
		}
		changed := false
		for _, msg := range inbox {
			if deliver(msg.to, msg.to.rib, msg.from, msg.route) {
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	res := &Result{RIB: map[string]map[netcfg.Prefix]*netcfg.Route{}, Iterations: iter, Converged: converged}
	for name, n := range s.nodes {
		res.RIB[name] = ribRoutes(n.rib)
	}
	return res
}

// fuzzBytes reads decisions off fuzz input; an exhausted input reads as
// zeros, so every byte string decodes to some network.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

// intn returns a decision in [0, n).
func (b *fuzzBytes) intn(n int) int { return int(b.next()) % n }

// The small vocabularies the generated networks draw from: nested and
// disjoint prefixes (so covering and longer routes race), a few
// communities, and local-pref/MED values on both sides of the defaults.
var (
	fuzzPrefixes = []netcfg.Prefix{
		netcfg.MustPrefix("100.0.0.0/8"),
		netcfg.MustPrefix("100.1.0.0/16"),
		netcfg.MustPrefix("100.1.1.0/24"),
		netcfg.MustPrefix("200.0.0.0/8"),
		netcfg.MustPrefix("201.2.0.0/16"),
		netcfg.MustPrefix("202.3.3.0/24"),
	}
	fuzzCommunities = []netcfg.Community{
		netcfg.MustCommunity("100:1"),
		netcfg.MustCommunity("100:2"),
		netcfg.MustCommunity("200:1"),
	}
	fuzzLocalPrefs = []int{50, 100, 150, 200}
	fuzzMEDs       = []int{0, 10, 20, 30}
	// fuzzPolicyNames are the names a neighbor may reference, half the
	// time none; the last is never defined, so it exercises the
	// fail-closed path.
	fuzzPolicyNames = []string{"", "", "", "", "P0", "P1", "P2", "UNDEF"}
)

// fuzzNetwork is a decoded device set: configured routers (in AddDevice
// order) plus external stubs.
type fuzzNetwork struct {
	names     []string
	devs      map[string]*netcfg.Device
	externals []fuzzExternal
}

type fuzzExternal struct {
	name       string
	addr       uint32
	asn        uint32
	originates []netcfg.Prefix
}

// sim builds a fresh simulator over the network's current devices.
func (fn *fuzzNetwork) sim(t *testing.T) *Sim {
	t.Helper()
	s := NewSim()
	for _, name := range fn.names {
		if err := s.AddDevice(name, fn.devs[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range fn.externals {
		if err := s.AddExternal(e.name, e.addr, e.asn, e.originates); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// decodeNetwork builds 2–8 routers on a random graph. Links are /30s in
// 10.<link>.0.0 whose two ends may declare each other, only one side may
// (one-sided peering), and either interface may be shut down. Up to three
// external stubs sit in 172.<stub>.0.0/30; each is declared by one router
// (which holds the interface) and sometimes by a second one. Router ASNs
// are drawn from a range as small as the router count, so AS-path loop
// detection fires. Structure is decoded before policies, and a zero byte
// always picks the plain choice (a link, both sides declaring, the
// interface up, no policy), so a short input still yields a connected
// network that propagates.
func decodeNetwork(b *fuzzBytes) *fuzzNetwork {
	n := 2 + b.intn(7)
	fn := &fuzzNetwork{devs: map[string]*netcfg.Device{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("R%d", i)
		dev := netcfg.NewDevice(name, netcfg.VendorCisco)
		bgp := dev.EnsureBGP(uint32(1 + (i+b.intn(n))%n))
		for k := 1 + b.intn(2); k > 0; k-- {
			bgp.Networks = append(bgp.Networks, fuzzPrefixes[(i+b.intn(len(fuzzPrefixes)))%len(fuzzPrefixes)])
		}
		fn.names = append(fn.names, name)
		fn.devs[name] = dev
	}
	link := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if b.intn(2) != 0 {
				continue
			}
			link++
			ai := netcfg.NewPrefix(uint32(10)<<24|uint32(link)<<16|1, 30)
			aj := netcfg.NewPrefix(uint32(10)<<24|uint32(link)<<16|2, 30)
			di, dj := fn.devs[fn.names[i]], fn.devs[fn.names[j]]
			fuzzInterface(b, di, fmt.Sprintf("l%d", link), ai)
			fuzzInterface(b, dj, fmt.Sprintf("l%d", link), aj)
			mode := b.intn(8) // 6: only i declares, 7: only j declares
			if mode != 7 {
				fuzzNeighbor(b, di, aj.Addr, dj.BGP.ASN)
			}
			if mode != 6 {
				fuzzNeighbor(b, dj, ai.Addr, di.BGP.ASN)
			}
		}
	}
	for e := b.intn(4); e > 0; e-- {
		k := len(fn.externals) + 1
		ext := fuzzExternal{
			name: fmt.Sprintf("E%d", k),
			addr: uint32(172)<<24 | uint32(k)<<16 | 2,
			asn:  uint32(64500 + k),
		}
		for p := 1 + b.intn(2); p > 0; p-- {
			ext.originates = append(ext.originates, fuzzPrefixes[(k+b.intn(len(fuzzPrefixes)))%len(fuzzPrefixes)])
		}
		host := fn.devs[fn.names[b.intn(n)]]
		fuzzInterface(b, host, fmt.Sprintf("e%d", k), netcfg.NewPrefix(uint32(172)<<24|uint32(k)<<16|1, 30))
		fuzzNeighbor(b, host, ext.addr, ext.asn)
		if b.intn(3) == 0 {
			// A second declarer: the stub's mirror sessions deduplicate.
			fuzzNeighbor(b, fn.devs[fn.names[b.intn(n)]], ext.addr, ext.asn)
		}
		fn.externals = append(fn.externals, ext)
	}
	for _, name := range fn.names {
		fuzzPolicies(b, fn.devs[name])
	}
	return fn
}

func fuzzInterface(b *fuzzBytes, dev *netcfg.Device, name string, addr netcfg.Prefix) {
	ifc := dev.EnsureInterface(name)
	ifc.Address = addr
	ifc.HasAddress = true
	ifc.Shutdown = b.intn(8) == 7
}

func fuzzNeighbor(b *fuzzBytes, dev *netcfg.Device, addr, remoteAS uint32) {
	nb := dev.BGP.EnsureNeighbor(addr)
	nb.RemoteAS = remoteAS
	nb.ImportPolicy = fuzzPolicyNames[b.intn(len(fuzzPolicyNames))]
	nb.ExportPolicy = fuzzPolicyNames[b.intn(len(fuzzPolicyNames))]
}

// fuzzPolicies (re)draws a device's prefix lists L0–L1, community lists
// C0–C1 and route policies P0–P2 (each present or not) from the small
// grammar: permit/deny clauses matching prefix lists, community lists or
// a community literal, setting local-pref, MED or communities.
func fuzzPolicies(b *fuzzBytes, dev *netcfg.Device) {
	dev.PrefixLists = map[string]*netcfg.PrefixList{}
	dev.CommunityLists = map[string]*netcfg.CommunityList{}
	dev.RoutePolicies = map[string]*netcfg.RoutePolicy{}
	for i := 0; i < 2; i++ {
		pl := &netcfg.PrefixList{Name: fmt.Sprintf("L%d", i)}
		for k := 1 + b.intn(2); k > 0; k-- {
			e := netcfg.PrefixListEntry{Seq: 5 * (len(pl.Entries) + 1), Action: netcfg.Permit,
				Prefix: fuzzPrefixes[b.intn(len(fuzzPrefixes))]}
			if b.intn(4) == 0 {
				e.Action = netcfg.Deny
			}
			if b.intn(2) == 0 {
				e.Le = 24
			}
			pl.Entries = append(pl.Entries, e)
		}
		dev.PrefixLists[pl.Name] = pl
		cl := &netcfg.CommunityList{Name: fmt.Sprintf("C%d", i)}
		for k := 1 + b.intn(2); k > 0; k-- {
			e := netcfg.CommunityListEntry{Action: netcfg.Permit,
				Community: fuzzCommunities[b.intn(len(fuzzCommunities))]}
			if b.intn(4) == 0 {
				e.Action = netcfg.Deny
			}
			cl.Entries = append(cl.Entries, e)
		}
		dev.CommunityLists[cl.Name] = cl
	}
	for i := 0; i < 3; i++ {
		if b.intn(4) == 3 {
			continue
		}
		pol := &netcfg.RoutePolicy{Name: fmt.Sprintf("P%d", i)}
		for k := 1 + b.intn(3); k > 0; k-- {
			cl := &netcfg.PolicyClause{Seq: 10 * (len(pol.Clauses) + 1), Action: netcfg.Permit}
			if b.intn(3) == 0 {
				cl.Action = netcfg.Deny
			}
			for m := b.intn(3); m > 0; m-- {
				switch b.intn(3) {
				case 0:
					cl.Matches = append(cl.Matches, netcfg.MatchPrefixList{List: fmt.Sprintf("L%d", b.intn(2))})
				case 1:
					cl.Matches = append(cl.Matches, netcfg.MatchCommunityList{List: fmt.Sprintf("C%d", b.intn(2))})
				default:
					cl.Matches = append(cl.Matches, netcfg.MatchCommunityLiteral{
						Community: fuzzCommunities[b.intn(len(fuzzCommunities))]})
				}
			}
			if cl.Action == netcfg.Permit {
				for s := b.intn(3); s > 0; s-- {
					switch b.intn(3) {
					case 0:
						cl.Sets = append(cl.Sets, netcfg.SetLocalPref{Pref: fuzzLocalPrefs[b.intn(len(fuzzLocalPrefs))]})
					case 1:
						cl.Sets = append(cl.Sets, netcfg.SetMED{MED: fuzzMEDs[b.intn(len(fuzzMEDs))]})
					default:
						cl.Sets = append(cl.Sets, netcfg.SetCommunity{
							Communities: []netcfg.Community{fuzzCommunities[b.intn(len(fuzzCommunities))]},
							Additive:    b.intn(2) == 0})
					}
				}
			}
			pol.Clauses = append(pol.Clauses, cl)
		}
		dev.RoutePolicies[pol.Name] = pol
	}
}

// decodeUpdate draws one router and returns a mutated copy of its
// device: redrawn policies, a toggled network, re-pointed neighbor
// policies, a toggled interface shutdown or a readdressed interface (both
// of which change addressing and force the session's cold fallback), or
// a new ASN.
func decodeUpdate(b *fuzzBytes, fn *fuzzNetwork) (string, *netcfg.Device) {
	name := fn.names[b.intn(len(fn.names))]
	dev := fn.devs[name].Clone()
	switch b.intn(6) {
	case 0:
		fuzzPolicies(b, dev)
	case 1:
		p := fuzzPrefixes[b.intn(len(fuzzPrefixes))]
		var kept []netcfg.Prefix
		for _, q := range dev.BGP.Networks {
			if q != p {
				kept = append(kept, q)
			}
		}
		if len(kept) == len(dev.BGP.Networks) {
			kept = append(kept, p)
		}
		dev.BGP.Networks = kept
	case 2:
		if len(dev.BGP.Neighbors) > 0 {
			nb := dev.BGP.Neighbors[b.intn(len(dev.BGP.Neighbors))]
			nb.ImportPolicy = fuzzPolicyNames[b.intn(len(fuzzPolicyNames))]
			nb.ExportPolicy = fuzzPolicyNames[b.intn(len(fuzzPolicyNames))]
		}
	case 3:
		if len(dev.Interfaces) > 0 {
			ifc := dev.Interfaces[b.intn(len(dev.Interfaces))]
			ifc.Shutdown = !ifc.Shutdown
		}
	case 4:
		if len(dev.Interfaces) > 0 {
			ifc := dev.Interfaces[b.intn(len(dev.Interfaces))]
			ifc.Address.Addr ^= uint32(1 + b.intn(3))
		}
	default:
		dev.BGP.ASN = uint32(1 + b.intn(len(fn.names)))
	}
	return name, dev
}

// checkSimPropagation is the fuzz body: a cold Run must equal the full
// re-announce reference, and a persistent session's RunIncremental must
// equal a cold Run after its first run and after every Update batch.
func checkSimPropagation(t *testing.T, data []byte) {
	b := &fuzzBytes{data: data}
	// The batch count comes first, so inputs that run out while decoding
	// policies still replay updates (decoded from zeros).
	batches := b.intn(5)
	fn := decodeNetwork(b)
	sess := fn.sim(t)
	check := func(label string, inc *Result) {
		t.Helper()
		cold := fn.sim(t).Run()
		if ref := fn.sim(t).runFullReannounce(); !reflect.DeepEqual(cold, ref) {
			t.Fatalf("%s: change-driven Run diverges from full re-announce\nrun: %+v\nref: %+v", label, cold, ref)
		}
		if !reflect.DeepEqual(cold, inc) {
			t.Fatalf("%s: RunIncremental diverges from cold Run\ncold: %+v\nincremental: %+v", label, cold, inc)
		}
	}
	check("initial", sess.RunIncremental())
	for ; batches > 0; batches-- {
		for u := 1 + b.intn(2); u > 0; u-- {
			name, dev := decodeUpdate(b, fn)
			fn.devs[name] = dev
			if err := sess.Update(name, dev); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("after batch (input offset %d)", b.pos), sess.RunIncremental())
	}
}

// FuzzSimPropagation differentially checks both propagation paths on
// generated device sets: change-driven cold rounds against the full
// re-announce reference, and the incremental replay against cold runs.
func FuzzSimPropagation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3})
	f.Fuzz(checkSimPropagation)
}

// TestSimPropagationRandomNetworks runs the fuzz body over a fixed set of
// pseudo-random inputs, so the plain test suite exercises far more
// networks than the committed corpus holds.
func TestSimPropagationRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 60+rng.Intn(400))
		rng.Read(data)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkSimPropagation(t, data) })
	}
}
