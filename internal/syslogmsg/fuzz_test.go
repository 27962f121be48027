package syslogmsg

import (
	"testing"
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
		m, err := ParseLine(line, 0)
		mb, errB := ParseLineBytes([]byte(line), 0)
		// The string and []byte paths must agree exactly: same accept/
		// reject decision, same fields, same error text.
		if (err == nil) != (errB == nil) {
			t.Fatalf("ParseLine err=%v but ParseLineBytes err=%v for %q", err, errB, line)
		}
		if err != nil {
			if err.Error() != errB.Error() {
				t.Fatalf("error drift:\nstring: %v\nbytes:  %v", err, errB)
			}
			return
		}
		if mb.Router != m.Router || mb.Code != m.Code || mb.Detail != m.Detail || !mb.Time.Equal(m.Time) {
			t.Fatalf("field drift:\nstring: %+v\nbytes:  %+v", m, mb)
		}
		// A successfully parsed message must re-serialize and re-parse to
		// the same fields (detail may contain '|', which Format preserves).
		back, err := ParseLine(m.Format(), 0)
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
