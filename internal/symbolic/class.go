package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netcfg"
)

// CommCond is a conjunction of community constraints: every community in
// req must be present on the route, every community in forbid absent.
// Both lists are sorted ascending without duplicates and are never
// written after construction, so conditions share them freely: And
// allocates only when a merged list is new, Negations never.
type CommCond struct {
	req    []netcfg.Community
	forbid []netcfg.Community
}

// TrueComm is the unconstrained community condition.
func TrueComm() CommCond { return CommCond{} }

// RequireComm returns a condition requiring a single community.
func RequireComm(c netcfg.Community) CommCond {
	return CommCond{req: []netcfg.Community{c}}
}

// ForbidComm returns a condition forbidding a single community.
func ForbidComm(c netcfg.Community) CommCond {
	return CommCond{forbid: []netcfg.Community{c}}
}

// Consistent reports whether the condition is satisfiable.
func (c CommCond) Consistent() bool { return disjoint(c.req, c.forbid) }

// And conjoins two conditions; ok=false when the result is unsatisfiable.
func (c CommCond) And(d CommCond) (CommCond, bool) {
	if !disjoint(c.req, d.forbid) || !disjoint(d.req, c.forbid) ||
		!c.Consistent() || !d.Consistent() {
		return CommCond{}, false
	}
	return CommCond{req: union(c.req, d.req), forbid: union(c.forbid, d.forbid)}, true
}

// Negations returns the disjuncts of ¬c: one single-literal condition per
// literal in c, negated, required literals first, each group in
// ascending community order.
func (c CommCond) Negations() []CommCond {
	out := make([]CommCond, 0, len(c.req)+len(c.forbid))
	for i := range c.req {
		out = append(out, CommCond{forbid: c.req[i : i+1 : i+1]})
	}
	for i := range c.forbid {
		out = append(out, CommCond{req: c.forbid[i : i+1 : i+1]})
	}
	return out
}

// Holds evaluates the condition on a concrete community set.
func (c CommCond) Holds(comms map[netcfg.Community]bool) bool {
	for _, comm := range c.req {
		if !comms[comm] {
			return false
		}
	}
	for _, comm := range c.forbid {
		if comms[comm] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (c CommCond) String() string {
	var parts []string
	for _, comm := range c.req {
		parts = append(parts, "+"+comm.String())
	}
	for _, comm := range c.forbid {
		parts = append(parts, "-"+comm.String())
	}
	if len(parts) == 0 {
		return "any-community"
	}
	return strings.Join(parts, " ")
}

// disjoint reports whether two sorted community lists share no element.
func disjoint(a, b []netcfg.Community) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// subset reports whether every element of sorted a is in sorted b.
func subset(a, b []netcfg.Community) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// union merges two sorted community lists. When one already holds the
// other it is returned as is; otherwise the result is a fresh slice.
func union(a, b []netcfg.Community) []netcfg.Community {
	if subset(b, a) {
		return a
	}
	if subset(a, b) {
		return b
	}
	out := make([]netcfg.Community, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func sortedComms(m map[netcfg.Community]bool) []netcfg.Community {
	out := make([]netcfg.Community, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ProtoMask is a bitmask over route protocols.
type ProtoMask uint8

// Per-protocol mask bits.
const (
	MaskConnected ProtoMask = 1 << iota
	MaskStatic
	MaskOSPF
	MaskBGP
	MaskAll = MaskConnected | MaskStatic | MaskOSPF | MaskBGP
)

// MaskOf returns the mask bit for a redistribution protocol.
func MaskOf(p netcfg.RedistProtocol) ProtoMask {
	switch p {
	case netcfg.RedistConnected:
		return MaskConnected
	case netcfg.RedistStatic:
		return MaskStatic
	case netcfg.RedistOSPF:
		return MaskOSPF
	default:
		return MaskBGP
	}
}

// Protocols enumerates the protocols in the mask.
func (m ProtoMask) Protocols() []netcfg.RouteProtocol {
	var out []netcfg.RouteProtocol
	if m&MaskConnected != 0 {
		out = append(out, netcfg.ProtoConnected)
	}
	if m&MaskStatic != 0 {
		out = append(out, netcfg.ProtoStatic)
	}
	if m&MaskOSPF != 0 {
		out = append(out, netcfg.ProtoOSPF)
	}
	if m&MaskBGP != 0 {
		out = append(out, netcfg.ProtoBGP)
	}
	return out
}

// String implements fmt.Stringer.
func (m ProtoMask) String() string {
	if m == MaskAll {
		return "any-protocol"
	}
	var parts []string
	for _, p := range m.Protocols() {
		parts = append(parts, p.String())
	}
	if len(parts) == 0 {
		return "no-protocol"
	}
	return strings.Join(parts, "|")
}

// Class is a symbolic set of routes: a prefix set × a community condition
// × a protocol mask.
type Class struct {
	Prefixes PrefixSet
	Comms    CommCond
	Protos   ProtoMask
}

// FullClass matches every route.
func FullClass() Class {
	return Class{Prefixes: FullPrefixSet(), Comms: TrueComm(), Protos: MaskAll}
}

// Empty reports whether the class matches no route.
func (c Class) Empty() bool {
	return c.Prefixes.Empty() || !c.Comms.Consistent() || c.Protos == 0
}

// Contains evaluates membership of a concrete route.
func (c Class) Contains(r *netcfg.Route) bool {
	return c.Prefixes.Contains(r.Prefix) && c.Comms.Holds(r.Communities) &&
		c.Protos&MaskOf(r.Protocol.RedistSource()) != 0
}

// Sample produces a concrete route from the class: the minimal prefix,
// exactly the required communities, and the first allowed protocol.
func (c Class) Sample() (*netcfg.Route, bool) {
	if c.Empty() {
		return nil, false
	}
	p, ok := c.Prefixes.Sample()
	if !ok {
		return nil, false
	}
	r := netcfg.NewRoute(p)
	for _, comm := range c.Comms.req {
		r.AddCommunity(comm)
	}
	protos := c.Protos.Protocols()
	// Prefer BGP samples when allowed: they are valid inputs to every
	// policy attachment point.
	r.Protocol = protos[0]
	for _, pr := range protos {
		if pr == netcfg.ProtoBGP {
			r.Protocol = pr
		}
	}
	return r, true
}

// String implements fmt.Stringer.
func (c Class) String() string {
	return fmt.Sprintf("{%s; %s; %s}", c.Prefixes, c.Comms, c.Protos)
}

// Intersect returns c ∩ d.
func (c Class) Intersect(d Class) Class {
	comms, ok := c.Comms.And(d.Comms)
	if !ok {
		return Class{}
	}
	return Class{
		Prefixes: c.Prefixes.Intersect(d.Prefixes),
		Comms:    comms,
		Protos:   c.Protos & d.Protos,
	}
}

// Subtract returns c \ d as a union of classes.
func (c Class) Subtract(d Class) Space {
	if c.Empty() {
		return nil
	}
	if d.Empty() {
		return Space{c}
	}
	var out Space
	// Routes in c whose prefix is outside d's prefixes.
	if ps := c.Prefixes.Subtract(d.Prefixes); !ps.Empty() {
		out = append(out, Class{Prefixes: ps, Comms: c.Comms, Protos: c.Protos})
	}
	inter := c.Prefixes.Intersect(d.Prefixes)
	if inter.Empty() {
		return out
	}
	// Routes in the shared prefix region violating d's community condition.
	for _, neg := range d.Comms.Negations() {
		if comms, ok := c.Comms.And(neg); ok {
			out = append(out, Class{Prefixes: inter, Comms: comms, Protos: c.Protos})
		}
	}
	// Routes in the shared prefix region satisfying both community
	// conditions but outside d's protocols.
	if both, ok := c.Comms.And(d.Comms); ok {
		if protos := c.Protos &^ d.Protos; protos != 0 {
			out = append(out, Class{Prefixes: inter, Comms: both, Protos: protos})
		}
	}
	return out
}

// Space is a union of classes.
type Space []Class

// FullSpace matches every route.
func FullSpace() Space { return Space{FullClass()} }

// Empty reports whether the space matches no route.
func (s Space) Empty() bool {
	for _, c := range s {
		if !c.Empty() {
			return false
		}
	}
	return true
}

// Contains evaluates membership of a concrete route.
func (s Space) Contains(r *netcfg.Route) bool {
	for _, c := range s {
		if c.Contains(r) {
			return true
		}
	}
	return false
}

// Sample produces a concrete route from the space.
func (s Space) Sample() (*netcfg.Route, bool) {
	for _, c := range s {
		if r, ok := c.Sample(); ok {
			return r, true
		}
	}
	return nil, false
}

// Union returns s ∪ t.
func (s Space) Union(t Space) Space {
	out := make(Space, 0, len(s)+len(t))
	for _, c := range s {
		if !c.Empty() {
			out = append(out, c)
		}
	}
	for _, c := range t {
		if !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// Intersect returns s ∩ t.
func (s Space) Intersect(t Space) Space {
	var out Space
	for _, a := range s {
		for _, b := range t {
			if i := a.Intersect(b); !i.Empty() {
				out = append(out, i)
			}
		}
	}
	return out
}

// Subtract returns s \ t.
func (s Space) Subtract(t Space) Space {
	cur := make(Space, 0, len(s))
	for _, c := range s {
		if !c.Empty() {
			cur = append(cur, c)
		}
	}
	for _, b := range t {
		if b.Empty() {
			continue
		}
		var next Space
		for _, a := range cur {
			next = append(next, a.Subtract(b)...)
		}
		cur = next
	}
	return cur
}
