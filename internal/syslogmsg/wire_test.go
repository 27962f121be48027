package syslogmsg

import (
	"strings"
	"testing"
	"time"
)

func TestParseRFC3164(t *testing.T) {
	line := "<189>Jan 10 00:00:15 r1 %LINK-3-UPDOWN: Interface Serial13/0.10/20:0, changed state to down"
	m, err := ParseWireBytes([]byte(line), 3, 2010)
	if err != nil {
		t.Fatal(err)
	}
	if m.Index != 3 || m.Router != "r1" || m.Code != "LINK-3-UPDOWN" {
		t.Fatalf("parsed %+v", m)
	}
	want := time.Date(2010, 1, 10, 0, 0, 15, 0, time.UTC)
	if !m.Time.Equal(want) {
		t.Fatalf("Time = %v, want %v", m.Time, want)
	}
	if m.Detail != "Interface Serial13/0.10/20:0, changed state to down" {
		t.Fatalf("Detail = %q", m.Detail)
	}
}

func TestParseRFC3164SpacePaddedDay(t *testing.T) {
	line := "<189>Feb  2 13:01:02 ra SNMP-WARNING-linkDown: Interface 0/0/1 is not operational"
	m, err := ParseWireBytes([]byte(line), 0, 2010)
	if err != nil {
		t.Fatal(err)
	}
	if m.Time.Day() != 2 || m.Time.Month() != time.February {
		t.Fatalf("Time = %v", m.Time)
	}
	if m.Code != "SNMP-WARNING-linkDown" {
		t.Fatalf("Code = %q", m.Code)
	}
}

func TestParseRFC3164DefaultYear(t *testing.T) {
	line := "<189>Mar 15 08:30:00 r9 %SYS-5-CONFIG_I: Configured from console"
	m, err := ParseWireBytes([]byte(line), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Time.Year() != time.Now().UTC().Year() {
		t.Fatalf("default year = %d", m.Time.Year())
	}
}

func TestParseRFC3164Errors(t *testing.T) {
	cases := []string{
		"<189>Xxx 10 00:00:15 r1 %A-1-B: d", // bad month
		"<189>Jan 99 00:00:15 r1 %A-1-B: d", // bad day
		"<189>Jan 10 00-00-15 r1 %A-1-B: d", // bad clock
		"<189>Jan 10 00:00:15",              // missing host/tag
		"<999>Jan 10 00:00:15 r1 %A-1-B: d", // pri out of range
	}
	for _, c := range cases {
		if _, err := ParseWireBytes([]byte(c), 0, 2010); err == nil {
			t.Errorf("ParseWireBytes(%q) succeeded", c)
		}
	}
}

func TestParseRFC5424WithMsgID(t *testing.T) {
	line := "<189>1 2010-01-10T00:00:15Z r5 router - LINK-3-UPDOWN - Interface Serial2/0.10/2:0, changed state to down"
	m, err := ParseWireBytes([]byte(line), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Router != "r5" || m.Code != "LINK-3-UPDOWN" {
		t.Fatalf("parsed %+v", m)
	}
	if !m.Time.Equal(time.Date(2010, 1, 10, 0, 0, 15, 0, time.UTC)) {
		t.Fatalf("Time = %v", m.Time)
	}
	if m.Detail != "Interface Serial2/0.10/2:0, changed state to down" {
		t.Fatalf("Detail = %q", m.Detail)
	}
}

func TestParseRFC5424NilMsgIDFallsBackToTag(t *testing.T) {
	line := "<189>1 2010-01-10T00:00:15Z rb router - - - SVCMGR-MAJOR-sapPortStateChangeProcessed: The status of all affected SAPs on port 1/1/1 has been updated"
	m, err := ParseWireBytes([]byte(line), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != "SVCMGR-MAJOR-sapPortStateChangeProcessed" {
		t.Fatalf("Code = %q", m.Code)
	}
	if !strings.HasPrefix(m.Detail, "The status") {
		t.Fatalf("Detail = %q", m.Detail)
	}
}

func TestParseRFC5424StructuredData(t *testing.T) {
	line := `<189>1 2010-01-10T00:00:15Z r5 router - BGP-5-ADJCHANGE [meta seq="42"][origin ip="10.0.0.1"] neighbor 192.168.0.2 vpn vrf 1000:1001 Up`
	m, err := ParseWireBytes([]byte(line), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != "BGP-5-ADJCHANGE" || !strings.HasPrefix(m.Detail, "neighbor") {
		t.Fatalf("parsed %+v", m)
	}
}

func TestParseRFC5424TimezoneNormalized(t *testing.T) {
	line := "<189>1 2010-01-10T05:00:15+05:00 r5 router - X-1-Y - detail"
	m, err := ParseWireBytes([]byte(line), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Time.Equal(time.Date(2010, 1, 10, 0, 0, 15, 0, time.UTC)) {
		t.Fatalf("Time = %v, want normalized UTC", m.Time)
	}
}

func TestParseRFC5424Errors(t *testing.T) {
	cases := []string{
		"<189>1 not-a-time r5 a b c - msg",
		"<189>1 2010-01-10T00:00:15Z - a b C - msg",                  // nil hostname
		"<189>1 2010-01-10T00:00:15Z",                                // truncated
		"<189>1 2010-01-10T00:00:15Z r5 a b X-1-Y [unterminated msg", // bad SD
	}
	for _, c := range cases {
		if _, err := ParseWireBytes([]byte(c), 0, 0); err == nil {
			t.Errorf("ParseWireBytes(%q) succeeded", c)
		}
	}
}

func TestParseWireFallsBackToLineFormat(t *testing.T) {
	line := "2010-01-10 00:00:15|r1|LINK-3-UPDOWN|Interface Serial1/0, changed state to down"
	m, err := ParseWireBytes([]byte(line), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Router != "r1" || m.Index != 5 {
		t.Fatalf("parsed %+v", m)
	}
}

func TestWireRoundTripRFC3164(t *testing.T) {
	orig := Message{
		Time:   time.Date(2010, 1, 10, 0, 0, 15, 0, time.UTC),
		Router: "r1", Code: "LINK-3-UPDOWN",
		Detail: "Interface Serial1/0, changed state to down",
	}
	wire := FormatRFC3164(&orig, 189)
	back, err := ParseWireBytes([]byte(wire), 0, 2010)
	if err != nil {
		t.Fatalf("%v (wire %q)", err, wire)
	}
	if back.Router != orig.Router || back.Code != orig.Code || back.Detail != orig.Detail || !back.Time.Equal(orig.Time) {
		t.Fatalf("round trip: %+v != %+v", back, orig)
	}
}

func TestWireRoundTripRFC5424(t *testing.T) {
	orig := Message{
		Time:   time.Date(2010, 1, 10, 0, 0, 15, 0, time.UTC),
		Router: "rb", Code: "SNMP-WARNING-linkDown",
		Detail: "Interface 0/0/1 is not operational",
	}
	wire := FormatRFC5424(&orig, 28)
	back, err := ParseWireBytes([]byte(wire), 0, 0)
	if err != nil {
		t.Fatalf("%v (wire %q)", err, wire)
	}
	if back.Router != orig.Router || back.Code != orig.Code || back.Detail != orig.Detail || !back.Time.Equal(orig.Time) {
		t.Fatalf("round trip: %+v != %+v", back, orig)
	}
}
