package syslogmsg

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

func mustTime(t *testing.T, s string) time.Time {
	t.Helper()
	ts, err := time.Parse(TimeLayout, s)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestParseLineRoundTrip(t *testing.T) {
	line := "2010-01-10 00:00:15|r1|LINK-3-UPDOWN|Interface Serial13/0.10/20:0, changed state to down"
	m, err := ParseLineBytes([]byte(line), 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Index != 7 {
		t.Fatalf("Index = %d, want 7", m.Index)
	}
	if m.Router != "r1" || m.Code != "LINK-3-UPDOWN" {
		t.Fatalf("parsed %+v", m)
	}
	if !m.Time.Equal(mustTime(t, "2010-01-10 00:00:15")) {
		t.Fatalf("Time = %v", m.Time)
	}
	if m.Format() != line {
		t.Fatalf("round trip:\n got %q\nwant %q", m.Format(), line)
	}
}

func TestParseLineDetailMayContainPipes(t *testing.T) {
	line := "2010-01-10 00:00:15|r1|SYS-5-CONFIG_I|Configured from console | by admin"
	m, err := ParseLineBytes([]byte(line), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Detail != "Configured from console | by admin" {
		t.Fatalf("Detail = %q", m.Detail)
	}
}

func TestParseLineErrors(t *testing.T) {
	cases := []string{
		"",
		"2010-01-10 00:00:15|r1|LINK-3-UPDOWN", // 3 fields
		"not-a-time|r1|LINK-3-UPDOWN|detail",   // bad timestamp
		"2010-01-10 00:00:15||LINK-3-UPDOWN|detail", // empty router
		"2010-01-10 00:00:15|r1||detail",            // empty code
	}
	for _, c := range cases {
		if _, err := ParseLineBytes([]byte(c), 0); err == nil {
			t.Errorf("ParseLineBytes(%q) succeeded, want error", c)
		}
	}
}

func TestParseCodeV1(t *testing.T) {
	ci := ParseCode("LINEPROTO-5-UPDOWN")
	if ci.Vendor != VendorV1 || ci.Facility != "LINEPROTO" || ci.Severity != 5 || ci.Mnemonic != "UPDOWN" {
		t.Fatalf("got %+v", ci)
	}
	ci = ParseCode("SYS-1-CPURISINGTHRESHOLD")
	if ci.Vendor != VendorV1 || ci.Severity != 1 {
		t.Fatalf("got %+v", ci)
	}
	ci = ParseCode("OSPF-5-ADJCHG")
	if ci.Facility != "OSPF" || ci.Severity != 5 || ci.Mnemonic != "ADJCHG" {
		t.Fatalf("got %+v", ci)
	}
}

func TestParseCodeV2(t *testing.T) {
	ci := ParseCode("SNMP-WARNING-linkDown")
	if ci.Vendor != VendorV2 || ci.Facility != "SNMP" || ci.Mnemonic != "linkDown" {
		t.Fatalf("got %+v", ci)
	}
	if ci.Severity != severityWords["WARNING"] {
		t.Fatalf("severity = %d", ci.Severity)
	}
	ci = ParseCode("SVCMGR-MAJOR-sapPortStateChangeProcessed")
	if ci.Vendor != VendorV2 || ci.Facility != "SVCMGR" {
		t.Fatalf("got %+v", ci)
	}
}

func TestParseCodeUnknown(t *testing.T) {
	for _, c := range []string{"WEIRD", "A-B", "A-9-B", "A-NOTASEV-B-C-D-extra"} {
		ci := ParseCode(c)
		if c == "A-NOTASEV-B-C-D-extra" || c == "WEIRD" || c == "A-B" {
			if ci.Vendor != VendorUnknown || ci.Severity != -1 {
				t.Errorf("ParseCode(%q) = %+v, want unknown", c, ci)
			}
		}
	}
	// Severity 9 is out of the 0-7 V1 range.
	if ci := ParseCode("A-9-B"); ci.Vendor != VendorUnknown {
		t.Errorf("ParseCode(A-9-B) = %+v, want unknown vendor", ci)
	}
}

func TestVendorString(t *testing.T) {
	if VendorV1.String() != "V1" || VendorV2.String() != "V2" || VendorUnknown.String() != "unknown" {
		t.Fatal("vendor names wrong")
	}
}

func TestSortByTime(t *testing.T) {
	t0 := mustTime(t, "2010-01-10 00:00:00")
	a := &Message{Time: t0, Router: "r1", Index: 0}
	b := &Message{Time: t0.Add(time.Second), Router: "r0", Index: 1}
	if !SortByTime(a, b) {
		t.Fatal("earlier timestamp should sort first")
	}
	c := &Message{Time: t0, Router: "r0", Index: 2}
	if SortByTime(a, c) {
		t.Fatal("same time: router r0 should sort before r1")
	}
	d := &Message{Time: t0, Router: "r1", Index: 5}
	if !SortByTime(a, d) {
		t.Fatal("same time and router: lower index first")
	}
}

func TestReaderReadAll(t *testing.T) {
	input := strings.Join([]string{
		"# header comment",
		"2010-01-10 00:00:00|r1|LINK-3-UPDOWN|Interface Serial1/0, changed state to down",
		"",
		"2010-01-10 00:00:01|r2|LINK-3-UPDOWN|Interface Serial2/0, changed state to down",
	}, "\n")
	msgs, err := NewReader(strings.NewReader(input)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("len = %d, want 2", len(msgs))
	}
	if msgs[0].Index != 0 || msgs[1].Index != 1 {
		t.Fatalf("indices = %d, %d", msgs[0].Index, msgs[1].Index)
	}
	if msgs[1].Router != "r2" {
		t.Fatalf("router = %q", msgs[1].Router)
	}
}

func TestReaderStrictVsLenient(t *testing.T) {
	input := "garbage line\n2010-01-10 00:00:00|r1|X-1-Y|ok\n"
	r := NewReader(strings.NewReader(input))
	if _, err := r.Read(); err == nil {
		t.Fatal("strict reader should fail on garbage")
	}

	r = NewReader(strings.NewReader(input))
	r.SetLenient(true)
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != "X-1-Y" || r.Skipped() != 1 {
		t.Fatalf("lenient read = %+v, skipped = %d", m, r.Skipped())
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	t0 := mustTime(t, "2010-01-10 00:00:00")
	in := []Message{
		{Index: 0, Time: t0, Router: "r1", Code: "LINK-3-UPDOWN", Detail: "Interface Serial1/0, changed state to down"},
		{Index: 1, Time: t0.Add(time.Minute), Router: "rb", Code: "SNMP-WARNING-linkup", Detail: "Interface 0/1/0 is operational"},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Format() != in[i].Format() {
			t.Fatalf("message %d: %q != %q", i, out[i].Format(), in[i].Format())
		}
	}
}
