package rest

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exampledata"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/suite"
)

func newTestClient(t *testing.T) *Client {
	t.Helper()
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

func TestHealth(t *testing.T) {
	c := newTestClient(t)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

func TestSyntaxRoundTrip(t *testing.T) {
	c := newTestClient(t)
	warns, err := c.CheckSyntax("configure terminal\nhostname r1\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 {
		t.Fatalf("warnings = %v, want exactly the CLI keyword warning", warns)
	}
	warns, err = c.CheckSyntax(exampledata.CiscoExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("example config should be clean, got %v", warns)
	}
}

func TestDiffRoundTrip(t *testing.T) {
	c := newTestClient(t)
	// Diffing the original against an empty Juniper config must produce
	// structural findings.
	findings, err := c.DiffTranslation(exampledata.CiscoExample, "system {\n    host-name border1;\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("expected structural findings against an empty translation")
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	c := newTestClient(t)
	topo, err := netgen.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	spec := topo.Router("R2")
	findings, err := c.VerifyTopology(*spec, "hostname R2\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("empty config should violate the topology spec")
	}
}

func TestLocalRoundTrip(t *testing.T) {
	c := newTestClient(t)
	req := lightyear.Requirement{
		Kind:      lightyear.EgressDropsCommunity,
		Router:    "R1",
		Policy:    "FILTER",
		Community: netcfg.MustCommunity("100:1"),
	}
	cfg := "hostname R1\n" +
		"ip community-list 1 permit 100:1\n" +
		"route-map FILTER permit 10\n"
	viol, bad, err := c.CheckLocalPolicy(cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Fatal("permit-all policy must violate the drop requirement")
	}
	if viol.Witness == nil || !viol.Witness.HasCommunity(netcfg.MustCommunity("100:1")) {
		t.Fatalf("witness should carry 100:1, got %v", viol.Witness)
	}
}

// TestOversizedBodyRefused pins the request-body cap: a body declared
// longer than MaxRequestBytes is refused with 413 before it is read, a
// chunked body that runs past the cap while being read gets 413 too, and a
// body under the cap is served. The chunked cases run against a 1 KiB cap
// so the test need not stream MaxRequestBytes.
func TestOversizedBodyRefused(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\n\r\n{", PathSyntax, MaxRequestBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared-oversize body: status %d, want 413", resp.StatusCode)
	}

	small := httptest.NewServer(limitBody(1<<10, NewHandler()))
	t.Cleanup(small.Close)
	post := func(configLen int) int {
		t.Helper()
		// io.MultiReader hides the length, so the client sends chunked.
		body := io.MultiReader(strings.NewReader(`{"config":"`),
			strings.NewReader(strings.Repeat("!", configLen)), strings.NewReader(`"}`))
		resp, err := http.Post(small.URL+PathSyntax, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(4 << 10); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body over the cap: status %d, want 413", got)
	}
	if got := post(512); got != http.StatusOK {
		t.Fatalf("chunked body under the cap: status %d, want 200", got)
	}
}

// TestGlobalAnswersAddresslessRouter pins the global endpoint's answer for
// a router that declares its ISP neighbor but has every interface shut
// down: the simulator keeps that session down, so both the stateless and
// the session dialect answer with a failing verdict rather than dropping
// the connection.
func TestGlobalAnswersAddresslessRouter(t *testing.T) {
	topo, cfgs := starConfigs(t, 3)
	var shut strings.Builder
	for _, line := range strings.SplitAfter(cfgs["R2"], "\n") {
		shut.WriteString(line)
		if strings.HasPrefix(line, " ip address ") {
			shut.WriteString(" shutdown\n")
		}
	}
	cfgs["R2"] = shut.String()
	c := newTestClient(t)
	plain, err := c.GlobalNoTransit(topo, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || plain.OK() || len(plain.MissingReachability) == 0 {
		t.Fatalf("an unreachable R2 must leave ISP2 cut off, got %+v", plain)
	}
	inc, err := c.GlobalNoTransitIncremental(topo, cfgs, &suite.GlobalHint{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameNoTransit(t, "session dialect", plain, inc)
}
