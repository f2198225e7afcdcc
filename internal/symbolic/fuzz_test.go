package symbolic

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/netcfg"
)

// mapCond is the map-backed community condition CommCond replaced, kept
// as the differential oracle for the sorted-slice algebra.
type mapCond struct {
	Req    map[netcfg.Community]bool
	Forbid map[netcfg.Community]bool
}

func (c mapCond) Consistent() bool {
	for comm := range c.Req {
		if c.Forbid[comm] {
			return false
		}
	}
	return true
}

func (c mapCond) And(d mapCond) (mapCond, bool) {
	out := mapCond{Req: map[netcfg.Community]bool{}, Forbid: map[netcfg.Community]bool{}}
	for k := range c.Req {
		out.Req[k] = true
	}
	for k := range d.Req {
		out.Req[k] = true
	}
	for k := range c.Forbid {
		out.Forbid[k] = true
	}
	for k := range d.Forbid {
		out.Forbid[k] = true
	}
	return out, out.Consistent()
}

func (c mapCond) Negations() []mapCond {
	var out []mapCond
	for _, comm := range sortedComms(c.Req) {
		out = append(out, mapCond{Forbid: map[netcfg.Community]bool{comm: true}})
	}
	for _, comm := range sortedComms(c.Forbid) {
		out = append(out, mapCond{Req: map[netcfg.Community]bool{comm: true}})
	}
	return out
}

func (c mapCond) Holds(comms map[netcfg.Community]bool) bool {
	for comm := range c.Req {
		if !comms[comm] {
			return false
		}
	}
	for comm := range c.Forbid {
		if comms[comm] {
			return false
		}
	}
	return true
}

// String renders the condition exactly as CommCond.String does.
func (c mapCond) String() string {
	var parts []string
	for _, comm := range sortedComms(c.Req) {
		parts = append(parts, "+"+comm.String())
	}
	for _, comm := range sortedComms(c.Forbid) {
		parts = append(parts, "-"+comm.String())
	}
	if len(parts) == 0 {
		return "any-community"
	}
	return strings.Join(parts, " ")
}

// fuzzComms is the community alphabet of the fuzz targets, listed out of
// numeric order so a sort slip shows.
var fuzzComms = []netcfg.Community{
	netcfg.NewCommunity(65000, 2), netcfg.NewCommunity(100, 1), netcfg.NewCommunity(65000, 1),
	netcfg.NewCommunity(65535, 65535), netcfg.NewCommunity(1, 0), netcfg.NewCommunity(100, 2),
	netcfg.NewCommunity(0, 1), netcfg.NewCommunity(65000, 999),
}

// commSet decodes a bitmask over fuzzComms.
func commSet(mask uint8) map[netcfg.Community]bool {
	out := map[netcfg.Community]bool{}
	for i, c := range fuzzComms {
		if mask&(1<<i) != 0 {
			out[c] = true
		}
	}
	return out
}

// conds builds the same condition both ways; req and forbid may overlap,
// so inconsistent conditions are generated too.
func conds(req, forbid uint8) (CommCond, mapCond) {
	r, f := commSet(req), commSet(forbid)
	return CommCond{req: sortedComms(r), forbid: sortedComms(f)}, mapCond{Req: r, Forbid: f}
}

// FuzzCommCond checks the sorted-slice CommCond against the map oracle on
// And, Consistent, Negations and Holds.
func FuzzCommCond(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(0b101), uint8(0b10), uint8(0b10), uint8(0b1000), uint8(0b111))
	f.Fuzz(func(t *testing.T, aReq, aForbid, bReq, bForbid, route uint8) {
		a, am := conds(aReq, aForbid)
		b, bm := conds(bReq, bForbid)
		comms := commSet(route)
		for _, c := range []struct {
			got  CommCond
			want mapCond
		}{{a, am}, {b, bm}} {
			if got, want := c.got.String(), c.want.String(); got != want {
				t.Fatalf("String = %q, oracle %q", got, want)
			}
			if got, want := c.got.Consistent(), c.want.Consistent(); got != want {
				t.Fatalf("%s: Consistent = %v, oracle %v", c.got, got, want)
			}
			if got, want := c.got.Holds(comms), c.want.Holds(comms); got != want {
				t.Fatalf("%s: Holds(%v) = %v, oracle %v", c.got, sortedComms(comms), got, want)
			}
			negs, wantNegs := c.got.Negations(), c.want.Negations()
			if len(negs) != len(wantNegs) {
				t.Fatalf("%s: %d negations, oracle %d", c.got, len(negs), len(wantNegs))
			}
			for i := range negs {
				if got, want := negs[i].String(), wantNegs[i].String(); got != want {
					t.Fatalf("%s: negation %d = %q, oracle %q", c.got, i, got, want)
				}
			}
		}
		and, ok := a.And(b)
		wantAnd, wantOK := am.And(bm)
		if ok != wantOK {
			t.Fatalf("%s AND %s: ok = %v, oracle %v", a, b, ok, wantOK)
		}
		if ok && and.String() != wantAnd.String() {
			t.Fatalf("%s AND %s = %s, oracle %s", a, b, and, wantAnd)
		}
		// And never writes into its operands' shared lists.
		if a2, _ := conds(aReq, aForbid); a.String() != a2.String() {
			t.Fatalf("And modified its receiver: %s, want %s", a, a2)
		}
		if b2, _ := conds(bReq, bForbid); b.String() != b2.String() {
			t.Fatalf("And modified its argument: %s, want %s", b, b2)
		}
	})
}

// policyBytes reads fuzz input one byte at a time, yielding zeros once
// exhausted so every input decodes to some policy.
type policyBytes []byte

func (b *policyBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzPatterns are the prefix patterns of generated prefix lists and
// route filters: nested, sibling and disjoint ranges.
var fuzzPatterns = []netcfg.Prefix{
	netcfg.MustPrefix("0.0.0.0/0"), netcfg.MustPrefix("10.0.0.0/8"),
	netcfg.MustPrefix("10.1.0.0/16"), netcfg.MustPrefix("10.128.0.0/9"),
	netcfg.MustPrefix("10.1.2.0/24"), netcfg.MustPrefix("150.0.0.0/16"),
}

// lengthRange decodes a valid prefix-length range for a pattern: lo is at
// least the pattern length, hi at least lo.
func lengthRange(b *policyBytes, p netcfg.Prefix) (lo, hi int) {
	lo = p.Len + b.next()%(33-p.Len)
	hi = lo + b.next()%(33-lo)
	return lo, hi
}

// fuzzDevice decodes a small device: two prefix lists, two community
// lists and one route policy "POL" of up to four clauses. Matches draw
// from every kind the symbolic engine models exactly, undefined lists
// included; AS-path regexes, which it over-approximates, are left out.
func fuzzDevice(data []byte) *netcfg.Device {
	b := policyBytes(data)
	dev := netcfg.NewDevice("F", netcfg.VendorCisco)
	for l := 0; l < 2; l++ {
		pl := &netcfg.PrefixList{Name: fmt.Sprintf("P%d", l)}
		for e, n := 0, 1+b.next()%3; e < n; e++ {
			flags := b.next()
			p := fuzzPatterns[b.next()%len(fuzzPatterns)]
			entry := netcfg.PrefixListEntry{Seq: 5 * (e + 1), Action: netcfg.Action(flags & 1), Prefix: p}
			if flags&2 != 0 {
				entry.Ge, entry.Le = lengthRange(&b, p)
				if entry.Ge == p.Len {
					entry.Ge = 0 // "le N" alone
				}
			}
			pl.Entries = append(pl.Entries, entry)
		}
		dev.PrefixLists[pl.Name] = pl
		cl := &netcfg.CommunityList{Name: fmt.Sprintf("C%d", l)}
		for e, n := 0, 1+b.next()%3; e < n; e++ {
			v := b.next()
			cl.Entries = append(cl.Entries, netcfg.CommunityListEntry{
				Action: netcfg.Action(v & 1), Community: fuzzComms[(v>>1)%len(fuzzComms)]})
		}
		dev.CommunityLists[cl.Name] = cl
	}
	pol := &netcfg.RoutePolicy{Name: "POL"}
	for c, n := 0, 1+b.next()%4; c < n; c++ {
		cl := &netcfg.PolicyClause{Seq: 10 * (c + 1), Action: netcfg.Action(b.next() & 1)}
		for m, k := 0, b.next()%3; m < k; m++ {
			v := b.next()
			switch v % 5 {
			case 0:
				cl.Matches = append(cl.Matches, netcfg.MatchPrefixList{List: fmt.Sprintf("P%d", (v/5)%3)})
			case 1:
				cl.Matches = append(cl.Matches, netcfg.MatchCommunityList{List: fmt.Sprintf("C%d", (v/5)%3)})
			case 2:
				cl.Matches = append(cl.Matches, netcfg.MatchCommunityLiteral{Community: fuzzComms[(v/5)%len(fuzzComms)]})
			case 3:
				protos := []netcfg.RedistProtocol{netcfg.RedistConnected, netcfg.RedistStatic,
					netcfg.RedistOSPF, netcfg.RedistBGP}
				cl.Matches = append(cl.Matches, netcfg.MatchProtocol{Protocol: protos[(v/5)%len(protos)]})
			default:
				p := fuzzPatterns[(v/5)%len(fuzzPatterns)]
				lo, hi := lengthRange(&b, p)
				cl.Matches = append(cl.Matches, netcfg.MatchRouteFilter{Prefix: p, MinLen: lo, MaxLen: hi})
			}
		}
		pol.Clauses = append(pol.Clauses, cl)
	}
	dev.RoutePolicies[pol.Name] = pol
	return dev
}

// FuzzAcceptRegions checks the compiled policy against the concrete
// evaluator on every route of the device's discriminating universe, each
// also tried with every subset of the first four fuzz communities: a
// route is in the accept space exactly when the policy permits it, and
// then lies in exactly one region, the one of the clause that fired.
func FuzzAcceptRegions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 1, 0, 2, 0, 0, 1, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		dev := fuzzDevice(data)
		pol := dev.RoutePolicies["POL"]
		c := Compile(pol, dev)
		var routes []*netcfg.Route
		for _, r := range Universe(dev) {
			routes = append(routes, r)
			if r.Protocol != netcfg.ProtoBGP || len(r.Communities) > 0 {
				continue
			}
			for mask := 1; mask < 16; mask++ {
				rc := r.Clone()
				for comm := range commSet(uint8(mask)) {
					rc.AddCommunity(comm)
				}
				routes = append(routes, rc)
			}
		}
		for _, r := range routes {
			res := netcfg.EvalPolicy(pol, dev, r)
			if got := c.Accept.Contains(r); got != res.Permitted {
				t.Fatalf("route %s: accept space says %v, evaluator %v\npolicy: %v", r, got, res.Permitted, pol.Clauses)
			}
			var in []int
			for _, reg := range c.Regions {
				if reg.Space.Contains(r) {
					in = append(in, reg.Clause.Seq)
				}
			}
			switch {
			case !res.Permitted && len(in) > 0:
				t.Fatalf("denied route %s lies in regions %v", r, in)
			case res.Permitted && (len(in) != 1 || in[0] != res.ClauseSeq):
				t.Fatalf("route %s permitted by clause %d lies in regions %v", r, res.ClauseSeq, in)
			}
		}
		if !sort.SliceIsSorted(c.Regions, func(i, j int) bool { return c.Regions[i].Clause.Seq < c.Regions[j].Clause.Seq }) {
			t.Fatal("regions are not in clause order")
		}
	})
}
