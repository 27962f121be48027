package syslogmsg

import (
	"strings"
	"testing"
	"time"
)

// Fuzzing targets: the parsers face operator-controlled and wire-delivered
// input and must never panic, whatever arrives.

func FuzzParseLine(f *testing.F) {
	f.Add("2010-01-10 00:00:15|r1|LINK-3-UPDOWN|Interface Serial1/0, changed state to down")
	f.Add("||||")
	f.Add("2010-01-10 00:00:15|r1|X|")
	f.Add("garbage")
	f.Add("2010-02-29 00:00:00|r1|X-1-Y|not a leap year")
	f.Add("2012-02-29 23:59:59|r1|X-1-Y|leap year")
	f.Add("2010-01-10 23:59:60|r1|X-1-Y|leap second")
	f.Add("2010-1-10 00:00:15|r1|X-1-Y|narrow month")
	f.Fuzz(func(t *testing.T, line string) {
		m, err := ParseLineBytes([]byte(line), 0)
		if err != nil {
			return
		}
		// An accepted timestamp is what time.Parse reads: the fast path
		// may only decline, never disagree.
		stamp, _, _ := strings.Cut(line, "|")
		if want, err := time.Parse(TimeLayout, stamp); err != nil || !m.Time.Equal(want) {
			t.Fatalf("timestamp %q parsed as %v, time.Parse says %v, %v", stamp, m.Time, want, err)
		}
		// A successfully parsed message must re-serialize and re-parse to
		// the same fields (detail may contain '|', which Format preserves).
		back, err := ParseLineBytes([]byte(m.Format()), 0)
		if err != nil {
			t.Fatalf("round trip of valid message failed: %v (%q)", err, m.Format())
		}
		if back.Router != m.Router || back.Code != m.Code || back.Detail != m.Detail || !back.Time.Equal(m.Time) {
			t.Fatalf("round trip drift: %+v vs %+v", back, m)
		}
	})
}

func FuzzParseWire(f *testing.F) {
	f.Add("<189>Jan 10 00:00:15 r1 %LINK-3-UPDOWN: Interface Serial1/0, changed state to down")
	f.Add("<189>1 2010-01-10T00:00:15Z r5 router - LINK-3-UPDOWN - detail here")
	f.Add("<1>")
	f.Add("<>x")
	f.Add("<189>1 2010-01-10T00:00:15Z r5 a b C [sd")
	f.Add("2010-01-10 00:00:15|r1|X-1-Y|d")
	f.Fuzz(func(t *testing.T, line string) {
		m, err := ParseWireBytes([]byte(line), 0, 2010)
		if err != nil {
			return
		}
		if m.Router == "" || m.Code == "" {
			t.Fatalf("accepted message without router/code: %q -> %+v", line, m)
		}
	})
}

func FuzzParseCode(f *testing.F) {
	f.Add("LINK-3-UPDOWN")
	f.Add("SNMP-WARNING-linkDown")
	f.Add("---")
	f.Add("")
	f.Fuzz(func(t *testing.T, code string) {
		ci := ParseCode(code)
		if ci.Severity < -1 || ci.Severity > 7 {
			t.Fatalf("severity %d out of range for %q", ci.Severity, code)
		}
	})
}
