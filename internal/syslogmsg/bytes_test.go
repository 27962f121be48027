package syslogmsg

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFastTimestampAgreesWithTimeParse sweeps the fast path's decision
// boundaries — month lengths, leap years and centuries, field limits,
// leap-second notation, malformed widths — and demands exact agreement
// with time.Parse on both acceptance and parsed value. The fallback
// guarantees errors match; this pins down the accept side.
func TestFastTimestampAgreesWithTimeParse(t *testing.T) {
	var cases []string
	for _, year := range []int{2009, 2010, 2012, 2000, 1900, 2100, 0} {
		for month := 0; month <= 13; month++ {
			for _, day := range []int{0, 1, 28, 29, 30, 31, 32} {
				cases = append(cases, fmt.Sprintf("%04d-%02d-%02d 12:34:56", year, month, day))
			}
		}
	}
	cases = append(cases,
		"2010-01-10 00:00:00",
		"2010-01-10 23:59:59",
		"2010-01-10 24:00:00",
		"2010-01-10 23:60:00",
		"2010-01-10 23:59:60", // leap-second notation: whatever time.Parse says
		"2010-1-10 00:00:15",
		"2010-01-10T00:00:15",
		"2010-01-10 00:00:15 ",
		" 2010-01-10 00:00:15",
		"2010-01-10 00:00:1x",
		"201O-01-10 00:00:15",
		"",
	)
	for _, c := range cases {
		want, wantErr := time.Parse(TimeLayout, c)
		got, ok := fastTimestamp([]byte(c))
		if ok && wantErr != nil {
			t.Errorf("fastTimestamp accepted %q, time.Parse rejects: %v", c, wantErr)
			continue
		}
		if ok && !got.Equal(want) {
			t.Errorf("fastTimestamp(%q) = %v, time.Parse = %v", c, got, want)
		}
		// !ok is always fine: the parser falls back to time.Parse.
	}
}

// TestParseLineBytesAllocs is the zero-allocation guard for the ingest hot
// path: one allocation per accepted message (the field storage), none per
// rejected or skipped line.
func TestParseLineBytesAllocs(t *testing.T) {
	good := []byte("2010-01-10 00:00:15|edge-router-7|LINK-3-UPDOWN|Interface Serial1/0, changed state to down")
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := ParseLineBytes(good, 7); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("ParseLineBytes allocates %.1f times per accepted message, want <= 1", allocs)
	}
	bad := []byte("no separators at all")
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := ParseLineBytes(bad, 0); err == nil {
			t.Fatal("malformed line accepted")
		}
	}); allocs > 3 {
		// The error value itself costs a constant few allocations; the
		// guard is that rejection never scales past that.
		t.Errorf("ParseLineBytes allocates %.1f times per rejected line", allocs)
	}
}

// TestReaderReadAllocs guards the full Read path: scanner token -> message,
// with comment and blank lines free.
func TestReaderReadAllocs(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 64; i++ {
		b.WriteString("# comment\n\n")
		fmt.Fprintf(&b, "2010-01-10 00:00:%02d|r%d|LINK-3-UPDOWN|detail %d\n", i%60, i%8, i)
	}
	text := b.String()
	allocs := testing.AllocsPerRun(20, func() {
		r := NewReader(strings.NewReader(text))
		n := 0
		for {
			if _, err := r.Read(); err != nil {
				break
			}
			n++
		}
		if n != 64 {
			t.Fatalf("read %d messages", n)
		}
	})
	// Per run: scanner + buffer setup is constant; the loop body must stay
	// at one allocation per message (64) with slack for the reader itself.
	if allocs > 72 {
		t.Errorf("Reader run allocated %.1f times for 64 messages", allocs)
	}
}

func BenchmarkParseLineBytes(b *testing.B) {
	line := []byte("2010-01-10 00:00:15|edge-router-7|LINK-3-UPDOWN|Interface Serial1/0, changed state to down")
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseLineBytes(line, 0); err != nil {
			b.Fatal(err)
		}
	}
}
