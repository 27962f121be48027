package locparse

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/netconf"
	"syslogdigest/internal/syslogmsg"
)

func testDict(t *testing.T) *locdict.Dictionary {
	t.Helper()
	r1 := &netconf.Config{
		Hostname: "r1", Vendor: syslogmsg.VendorV1, Region: "TX", LocalAS: 65000,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.1", PrefixLen: 32},
			{Name: "Serial1/0/1:0", IP: "10.0.0.1", PrefixLen: 30},
			{Name: "GigabitEthernet2/1", IP: "10.0.0.5", PrefixLen: 30},
		},
		Controllers: []netconf.Controller{{Kind: "T3", Path: "1/0"}},
		Neighbors:   []netconf.BGPNeighbor{{IP: "192.168.0.2", RemoteAS: 65000}},
	}
	r2 := &netconf.Config{
		Hostname: "r2", Vendor: syslogmsg.VendorV1, Region: "GA", LocalAS: 65000,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.2", PrefixLen: 32},
			{Name: "Serial2/0/1:0", IP: "10.0.0.2", PrefixLen: 30},
		},
	}
	d, err := locdict.Build([]*netconf.Config{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func msg(router, code, detail string) *syslogmsg.Message {
	return &syslogmsg.Message{
		Time:   time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC),
		Router: router,
		Code:   code,
		Detail: detail,
	}
}

// groundsNothing asserts that token contributes nothing to the parse of
// detail: it resolves to no Primary, no All entry and no peer hint that the
// same message without the token lacks.
func groundsNothing(t *testing.T, p *Parser, router, code, detail, token string) {
	t.Helper()
	with := p.Parse(msg(router, code, detail))
	without := p.Parse(msg(router, code, strings.Replace(detail, token, "", 1)))
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("%q grounded: parse %+v, without it %+v", token, with, without)
	}
}

func TestParseInterfaceMessage(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "LINK-3-UPDOWN", "Interface Serial1/0/1:0, changed state to down"))
	want := locdict.IntfLoc("r1", "Serial1/0/1:0")
	if info.Primary != want {
		t.Fatalf("Primary = %v, want %v", info.Primary, want)
	}
	// Every location token grounds: All is exactly the interface and the
	// router fallback, finest first.
	if !reflect.DeepEqual(info.All, []locdict.Location{want, locdict.RouterLoc("r1")}) {
		t.Fatalf("All = %v", info.All)
	}
}

func TestParseLineProtoSubinterface(t *testing.T) {
	p := New(testDict(t))
	// Channelized sub-interface extends a configured name.
	info := p.Parse(msg("r1", "LINEPROTO-5-UPDOWN", "Line protocol on Interface Serial1/0/1:0.100, changed state to down"))
	if info.Primary != locdict.IntfLoc("r1", "Serial1/0/1:0") {
		t.Fatalf("Primary = %v", info.Primary)
	}
}

func TestParseRouterLevelFallback(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "SYS-1-CPURISINGTHRESHOLD",
		"Threshold: Total CPU Utilization(Total/Intr): 95%/1%, Top 3 processes (Pid/Util): 2/71%, 8/6%, 7/3%"))
	if info.Primary != locdict.RouterLoc("r1") {
		t.Fatalf("Primary = %v, want router level", info.Primary)
	}
	if len(info.PeerRouters) != 0 {
		t.Fatalf("PeerRouters = %v", info.PeerRouters)
	}
}

func TestParseOwnIPResolves(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "OSPF-5-ADJCHG", "Process 1, Nbr on 10.0.0.1 from FULL to DOWN"))
	if info.Primary != locdict.IntfLoc("r1", "Serial1/0/1:0") {
		t.Fatalf("Primary = %v", info.Primary)
	}
}

func TestParseNeighborIPBecomesPeerHint(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "BGP-5-ADJCHANGE", "neighbor 192.168.0.2 Down Peer closed the session"))
	if info.Primary != locdict.RouterLoc("r1") {
		t.Fatalf("Primary = %v", info.Primary)
	}
	if len(info.PeerRouters) != 1 || info.PeerRouters[0] != "r2" {
		t.Fatalf("PeerRouters = %v", info.PeerRouters)
	}
	// The link far-end address also resolves to a peer hint.
	info = p.Parse(msg("r1", "BGP-5-ADJCHANGE", "neighbor 10.0.0.2 Down BGP Notification sent"))
	if len(info.PeerRouters) != 1 || info.PeerRouters[0] != "r2" {
		t.Fatalf("far-end PeerRouters = %v", info.PeerRouters)
	}
}

func TestParseScannerIPUnresolved(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "TCP-6-BADAUTH", "Invalid MD5 digest from 203.0.113.99:4444 to 192.168.0.1:179"))
	// Own loopback resolves; the scanner address is unresolved.
	if info.Primary != locdict.IntfLoc("r1", "Loopback0") {
		t.Fatalf("Primary = %v", info.Primary)
	}
	groundsNothing(t, p, "r1", "TCP-6-BADAUTH", "Invalid MD5 digest from 203.0.113.99:4444 to 192.168.0.1:179", "203.0.113.99")
}

func TestParseControllerPort(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "CONTROLLER-5-UPDOWN", "Controller T3 1/0, changed state to down"))
	want := locdict.Location{Router: "r1", Level: locdict.LevelPort, Name: "1/0"}
	if info.Primary != want {
		t.Fatalf("Primary = %v, want %v", info.Primary, want)
	}
}

func TestParseSlotKeyword(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "PLATFORM-3-RESET", "Linecard in Slot 1 is being reset"))
	want := locdict.Location{Router: "r1", Level: locdict.LevelSlot, Name: "1"}
	if info.Primary != want {
		t.Fatalf("Primary = %v, want %v", info.Primary, want)
	}
	// A bare number without the keyword is not a location.
	info = p.Parse(msg("r1", "PLATFORM-3-RESET", "Error count 1 exceeded"))
	if info.Primary != locdict.RouterLoc("r1") {
		t.Fatalf("bare number grounded: %v", info.Primary)
	}
}

func TestParseRatioDoesNotResolveAsPort(t *testing.T) {
	p := New(testDict(t))
	// "9/9" looks like a port path but the router has no port 9/9.
	info := p.Parse(msg("r1", "SYS-2-MALLOCFAIL", "Pool 9/9 exhausted"))
	if info.Primary != locdict.RouterLoc("r1") {
		t.Fatalf("Primary = %v", info.Primary)
	}
	groundsNothing(t, p, "r1", "SYS-2-MALLOCFAIL", "Pool 9/9 exhausted", "9/9")
}

func TestParseDeduplicatesLocations(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "LINK-3-UPDOWN", "Interface Serial1/0/1:0 and Serial1/0/1:0 again"))
	count := 0
	for _, l := range info.All {
		if l == locdict.IntfLoc("r1", "Serial1/0/1:0") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate locations in All: %v", info.All)
	}
}

func TestParseUnknownRouter(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r99", "LINK-3-UPDOWN", "Interface Serial1/0/1:0, changed state to down"))
	if info.Primary != locdict.RouterLoc("r99") {
		t.Fatalf("Primary = %v", info.Primary)
	}
	// The interface exists only on r1: on an unknown router it grounds to
	// nothing.
	groundsNothing(t, p, "r99", "LINK-3-UPDOWN", "Interface Serial1/0/1:0, changed state to down", "Serial1/0/1:0")
}

func TestParseAllSortedFinestFirst(t *testing.T) {
	p := New(testDict(t))
	info := p.Parse(msg("r1", "X-5-Y", "Slot 1 Controller 1/0 Interface Serial1/0/1:0 event"))
	for i := 1; i < len(info.All); i++ {
		if info.All[i].Level < info.All[i-1].Level {
			t.Fatalf("All not sorted by level: %v", info.All)
		}
	}
	if info.Primary.Level != locdict.LevelInterface {
		t.Fatalf("Primary = %v, want interface level", info.Primary)
	}
}
