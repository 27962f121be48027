package syslogmsg

import (
	"fmt"
	"strings"
	"time"
)

// Zero-allocation line parsing. The serialized line format is the ingest
// hot path for both file readers and the live collector; parsing it from
// the scanner's []byte token directly avoids materializing a string per
// line. ParseLineBytes performs exactly one allocation per accepted
// message: the string holding router, code and detail (which must outlive
// the scanner buffer).

// ParseLineBytes parses one serialized message line, e.g. a bufio.Scanner
// token. The index is supplied by the caller since it reflects stream
// position, not line content. The returned Message copies what it keeps;
// line may be reused or overwritten by the caller immediately.
func ParseLineBytes(line []byte, index uint64) (Message, error) {
	// Locate the first three '|' separators without allocating a split
	// slice; the detail field keeps any further '|' bytes.
	var sep [3]int
	n := 0
	for i := 0; i < len(line); i++ {
		if line[i] == '|' {
			sep[n] = i
			n++
			if n == 3 {
				break
			}
		}
	}
	if n < 3 {
		return Message{}, fmt.Errorf("syslogmsg: malformed line (want 4 '|' fields, got %d): %q", n+1, line)
	}
	ts, ok := fastTimestamp(line[:sep[0]])
	if !ok {
		var err error
		ts, err = time.Parse(TimeLayout, string(line[:sep[0]]))
		if err != nil {
			return Message{}, fmt.Errorf("syslogmsg: bad timestamp %q: %w", line[:sep[0]], err)
		}
	}
	rest := string(line[sep[0]+1:])
	r1 := sep[1] - sep[0] - 1
	r2 := sep[2] - sep[0] - 1
	router := strings.TrimSpace(rest[:r1])
	if router == "" {
		return Message{}, fmt.Errorf("syslogmsg: empty router field in %q", line)
	}
	code := strings.TrimSpace(rest[r1+1 : r2])
	if code == "" {
		return Message{}, fmt.Errorf("syslogmsg: empty code field in %q", line)
	}
	return Message{
		Index:  index,
		Time:   ts,
		Router: router,
		Code:   code,
		Detail: rest[r2+1:],
	}, nil
}

// fastTimestamp parses a strictly regular "2006-01-02 15:04:05" timestamp
// without time.Parse. ok is false for anything irregular — wrong width,
// non-digit, out-of-range field, leap-second notation — which then falls
// back to time.Parse so edge-case acceptance and error text stay identical
// to the historical parser.
func fastTimestamp(b []byte) (time.Time, bool) {
	if len(b) != 19 || b[4] != '-' || b[7] != '-' || b[10] != ' ' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	for _, i := range [...]int{0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18} {
		if b[i] < '0' || b[i] > '9' {
			return time.Time{}, false
		}
	}
	d := func(i int) int { return int(b[i] - '0') }
	year := d(0)*1000 + d(1)*100 + d(2)*10 + d(3)
	month := d(5)*10 + d(6)
	day := d(8)*10 + d(9)
	hh := d(11)*10 + d(12)
	mm := d(14)*10 + d(15)
	ss := d(17)*10 + d(18)
	if month < 1 || month > 12 || day < 1 || day > daysIn(year, month) ||
		hh > 23 || mm > 59 || ss > 59 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hh, mm, ss, 0, time.UTC), true
}

// daysIn returns the length of a month in the proleptic Gregorian
// calendar, matching time.Parse's day-of-month validation.
func daysIn(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default: // February
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
}
