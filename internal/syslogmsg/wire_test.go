package syslogmsg

import (
	"strconv"
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

// TestParseRFC3164DefaultYear: with no year given, the parser dates a
// year-less timestamp within half a year of the clock — a line stamped
// with the current month and day is this year's.
func TestParseRFC3164DefaultYear(t *testing.T) {
	now := time.Now().UTC()
	line := "<189>" + now.Format(time.Stamp) + " r9 %SYS-5-CONFIG_I: Configured from console"
	m, err := ParseWireBytes([]byte(line), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Time.Year() != now.Year() {
		t.Fatalf("default year = %d, the clock says %d", m.Time.Year(), now.Year())
	}
}

// TestNearestYear: either side of New Year, a year-less timestamp takes the
// year that puts it nearest the clock; an explicit year still wins.
func TestNearestYear(t *testing.T) {
	for _, c := range []struct {
		now   time.Time
		stamp string // "Mmm dd hh:mm:ss"
		want  time.Time
	}{
		{time.Date(2027, 1, 1, 0, 0, 5, 0, time.UTC), "Dec 31 23:59:58", time.Date(2026, 12, 31, 23, 59, 58, 0, time.UTC)},
		{time.Date(2026, 12, 31, 23, 59, 58, 0, time.UTC), "Jan  1 00:00:03", time.Date(2027, 1, 1, 0, 0, 3, 0, time.UTC)},
		{time.Date(2026, 12, 31, 23, 59, 58, 0, time.UTC), "Dec 31 23:59:50", time.Date(2026, 12, 31, 23, 59, 50, 0, time.UTC)},
		{time.Date(2027, 1, 1, 0, 0, 5, 0, time.UTC), "Jan  1 00:00:01", time.Date(2027, 1, 1, 0, 0, 1, 0, time.UTC)},
		{time.Date(2026, 6, 15, 12, 0, 0, 0, time.UTC), "Jun 14 08:00:00", time.Date(2026, 6, 14, 8, 0, 0, 0, time.UTC)},
		{time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC), "Nov 20 10:00:00", time.Date(2025, 11, 20, 10, 0, 0, 0, time.UTC)},
		{time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC), "Feb  3 10:00:00", time.Date(2027, 2, 3, 10, 0, 0, 0, time.UTC)},
	} {
		line := "<189>" + c.stamp + " r1 %LINK-3-UPDOWN: Interface Serial1/0, changed state to down"
		m, err := ParseWireBytes([]byte(line), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := nearestYear(m.Time.Month(), m.Time.Day(), m.Time.Hour(), m.Time.Minute(), m.Time.Second(), c.now)
		if !ok || !got.Equal(c.want) {
			t.Errorf("%q received %s: dated %s, want %s", c.stamp, c.now.Format(time.RFC3339), got.Format(time.RFC3339), c.want.Format(time.RFC3339))
		}
		fixed, err := ParseWireBytes([]byte(line), 0, 2010)
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Time.Year() != 2010 {
			t.Errorf("%q with year 2010: dated %d", c.stamp, fixed.Time.Year())
		}
	}
}

// TestParseRFC3164ImpossibleDates: a day the month does not have is
// refused, not rolled into the next month. With an explicit year, Feb 29
// exists in leap years only; with none, the date takes the nearest of the
// three years around the clock that has it, and is refused when none does.
func TestParseRFC3164ImpossibleDates(t *testing.T) {
	line := func(stamp string) []byte {
		return []byte("<189>" + stamp + " 10:00:00 r1 %LINK-3-UPDOWN: Interface Serial1/0, changed state to down")
	}
	for _, c := range []struct {
		stamp string
		year  int
		want  time.Time // zero: refused
	}{
		{"Feb 29", 2024, time.Date(2024, 2, 29, 10, 0, 0, 0, time.UTC)},
		{"Feb 29", 2025, time.Time{}},
		{"Feb 30", 2024, time.Time{}},
		{"Feb 30", 2025, time.Time{}},
		{"Apr 31", 2024, time.Time{}},
		{"Apr 31", 2025, time.Time{}},
		{"Apr 30", 2025, time.Date(2025, 4, 30, 10, 0, 0, 0, time.UTC)},
	} {
		m, err := ParseWireBytes(line(c.stamp), 0, c.year)
		switch {
		case c.want.IsZero() && err == nil:
			t.Errorf("%s with year %d: accepted as %s", c.stamp, c.year, m.Time.Format(time.RFC3339))
		case !c.want.IsZero() && (err != nil || !m.Time.Equal(c.want)):
			t.Errorf("%s with year %d: %v, %v; want %s", c.stamp, c.year, m.Time, err, c.want.Format(time.RFC3339))
		}
	}
	// Feb 30 and Apr 31 exist in no year, whatever the clock reads.
	for _, stamp := range []string{"Feb 30", "Apr 31"} {
		if m, err := ParseWireBytes(line(stamp), 0, 0); err == nil {
			t.Errorf("%s with no year: accepted as %s", stamp, m.Time.Format(time.RFC3339))
		}
	}
	for _, c := range []struct {
		stamp string
		now   time.Time
		want  time.Time // zero: no candidate year has the date
	}{
		{"Feb 29", time.Date(2025, 3, 10, 0, 0, 0, 0, time.UTC), time.Date(2024, 2, 29, 10, 0, 0, 0, time.UTC)},
		{"Feb 29", time.Date(2026, 10, 20, 0, 0, 0, 0, time.UTC), time.Time{}},
		{"Feb 29", time.Date(2027, 6, 1, 0, 0, 0, 0, time.UTC), time.Date(2028, 2, 29, 10, 0, 0, 0, time.UTC)},
		{"Feb 30", time.Date(2025, 3, 10, 0, 0, 0, 0, time.UTC), time.Time{}},
		{"Feb 30", time.Date(2026, 10, 20, 0, 0, 0, 0, time.UTC), time.Time{}},
		{"Feb 30", time.Date(2027, 6, 1, 0, 0, 0, 0, time.UTC), time.Time{}},
		{"Apr 31", time.Date(2025, 3, 10, 0, 0, 0, 0, time.UTC), time.Time{}},
		{"Apr 31", time.Date(2026, 10, 20, 0, 0, 0, 0, time.UTC), time.Time{}},
		{"Apr 31", time.Date(2027, 6, 1, 0, 0, 0, 0, time.UTC), time.Time{}},
	} {
		mon := rfc3164Months[c.stamp[:3]]
		day, _ := strconv.Atoi(c.stamp[4:])
		got, ok := nearestYear(mon, day, 10, 0, 0, c.now)
		if ok != !c.want.IsZero() || !got.Equal(c.want) {
			t.Errorf("%s received %s: dated %s (ok %v), want %s", c.stamp, c.now.Format(time.RFC3339),
				got.Format(time.RFC3339), ok, c.want.Format(time.RFC3339))
		}
	}
}

func TestParseRFC3164Errors(t *testing.T) {
	cases := []string{
		"<189>Xxx 10 00:00:15 r1 %A-1-B: d", // bad month
		"<189>Jan 99 00:00:15 r1 %A-1-B: d", // bad day
		"<189>Jan 10 00-00-15 r1 %A-1-B: d", // bad clock
		"<189>Jan 10 00:00:-1 r1 %A-1-B: d", // negative second: would roll into Jan 9
		"<189>Jan 10 24:00:00 r1 %A-1-B: d", // hour 24: would roll into Jan 11
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
