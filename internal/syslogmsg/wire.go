package syslogmsg

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Wire-format parsing. Routers transmit syslog to collectors using the
// syslog protocol (the paper's reference [6]); the payload formats seen in
// practice are BSD-style RFC 3164 and the newer RFC 5424. Both are parsed
// into the same Message model the rest of the pipeline consumes. The
// router-private line format (ParseLineBytes) remains the storage format.

// ParseWireBytes parses one syslog wire datagram/line in whichever format
// it uses: RFC 5424 (leading "<pri>1 "), RFC 3164 (leading "<pri>" + BSD
// timestamp), or the repository's own line format as a fallback. It is the
// one place a wire line's format is decided. The repository line format —
// the hot path when replaying corpora through the collector — is parsed
// with ParseLineBytes; RFC 5424/3164 framings take the string parsers.
func ParseWireBytes(line []byte, index uint64, year int) (Message, error) {
	if len(line) > 0 && line[0] == '<' {
		if i := bytes.IndexByte(line, '>'); i > 0 && i <= 4 {
			if bytes.HasPrefix(line[i+1:], []byte("1 ")) {
				return parseRFC5424(string(line), index)
			}
			return parseRFC3164(string(line), index, year)
		}
	}
	return ParseLineBytes(line, index)
}

// parsePri extracts and validates the <pri> prefix, returning facility*8+severity
// and the remainder.
func parsePri(line string) (pri int, rest string, err error) {
	if !strings.HasPrefix(line, "<") {
		return 0, "", fmt.Errorf("syslogmsg: missing <pri> in %q", line)
	}
	end := strings.IndexByte(line, '>')
	if end < 2 || end > 4 {
		return 0, "", fmt.Errorf("syslogmsg: malformed <pri> in %q", line)
	}
	pri, err = strconv.Atoi(line[1:end])
	if err != nil || pri < 0 || pri > 191 {
		return 0, "", fmt.Errorf("syslogmsg: invalid <pri> %q", line[1:end])
	}
	return pri, line[end+1:], nil
}

// rfc3164Months maps BSD timestamp month names.
var rfc3164Months = map[string]time.Month{
	"Jan": time.January, "Feb": time.February, "Mar": time.March,
	"Apr": time.April, "May": time.May, "Jun": time.June,
	"Jul": time.July, "Aug": time.August, "Sep": time.September,
	"Oct": time.October, "Nov": time.November, "Dec": time.December,
}

// parseRFC3164 parses "<pri>Mmm dd hh:mm:ss host tag: content". BSD
// timestamps carry no year; the caller supplies one, or 0 for the year that
// puts the timestamp nearest the clock (nearestYear). The router message
// type is recovered from the tag, e.g. "%LINK-3-UPDOWN:" or "LINK-3-UPDOWN:".
func parseRFC3164(line string, index uint64, year int) (Message, error) {
	_, rest, err := parsePri(line)
	if err != nil {
		return Message{}, err
	}
	// Timestamp: "Mmm dd hh:mm:ss " (dd may be space-padded).
	if len(rest) < 16 {
		return Message{}, fmt.Errorf("syslogmsg: short RFC3164 line %q", line)
	}
	mon, ok := rfc3164Months[rest[0:3]]
	if !ok {
		return Message{}, fmt.Errorf("syslogmsg: bad month in %q", line)
	}
	dayStr := strings.TrimSpace(rest[4:6])
	day, err := strconv.Atoi(dayStr)
	if err != nil || day < 1 || day > 31 {
		return Message{}, fmt.Errorf("syslogmsg: bad day in %q", line)
	}
	clock := rest[7:15]
	hh, errH := strconv.Atoi(clock[0:2])
	mm, errM := strconv.Atoi(clock[3:5])
	ss, errS := strconv.Atoi(clock[6:8])
	if errH != nil || errM != nil || errS != nil || clock[2] != ':' || clock[5] != ':' ||
		hh < 0 || hh > 23 || mm < 0 || mm > 59 || ss < 0 || ss > 59 {
		return Message{}, fmt.Errorf("syslogmsg: bad clock in %q", line)
	}
	// time.Date would roll a day the month lacks into the next month
	// (Feb 30 into March), so such a date is refused, as the line format's
	// parser refuses it.
	var ts time.Time
	if year == 0 {
		ts, ok = nearestYear(mon, day, hh, mm, ss, time.Now())
	} else if ok = day <= daysIn(year, int(mon)); ok {
		ts = time.Date(year, mon, day, hh, mm, ss, 0, time.UTC)
	}
	if !ok {
		return Message{}, fmt.Errorf("syslogmsg: no such date in %q", line)
	}

	fields := strings.Fields(rest[15:])
	if len(fields) < 2 {
		return Message{}, fmt.Errorf("syslogmsg: RFC3164 line missing host/tag: %q", line)
	}
	host := fields[0]
	tag := fields[1]
	detailStart := strings.Index(rest[15:], tag) + len(tag)
	detail := strings.TrimSpace(rest[15:][detailStart:])
	code := strings.TrimSuffix(strings.TrimPrefix(tag, "%"), ":")
	if code == "" {
		return Message{}, fmt.Errorf("syslogmsg: empty tag in %q", line)
	}
	return Message{Index: index, Time: ts, Router: host, Code: code, Detail: detail}, nil
}

// nearestYear dates a year-less timestamp in whichever of the years before,
// of and after now puts it nearest now: a Dec 31 line received just after
// New Year is last year's, not next year's. Only years that have the date
// are candidates (Feb 29 exists in leap years alone); ok is false when none
// of the three does.
func nearestYear(mon time.Month, day, hh, mm, ss int, now time.Time) (best time.Time, ok bool) {
	y := now.UTC().Year()
	for _, c := range []int{y - 1, y, y + 1} {
		if day > daysIn(c, int(mon)) {
			continue
		}
		t := time.Date(c, mon, day, hh, mm, ss, 0, time.UTC)
		if !ok || t.Sub(now).Abs() < best.Sub(now).Abs() {
			best, ok = t, true
		}
	}
	return best, ok
}

// parseRFC5424 parses
// "<pri>1 TIMESTAMP HOSTNAME APP-NAME PROCID MSGID SD MSG", mapping
// MSGID to the error code and MSG to the detail. "-" fields are nil values
// per the RFC.
func parseRFC5424(line string, index uint64) (Message, error) {
	_, rest, err := parsePri(line)
	if err != nil {
		return Message{}, err
	}
	if !strings.HasPrefix(rest, "1 ") {
		return Message{}, fmt.Errorf("syslogmsg: unsupported syslog version in %q", line)
	}
	rest = rest[2:]
	// TIMESTAMP HOSTNAME APP PROCID MSGID
	var fields [5]string
	for i := 0; i < 5; i++ {
		j := strings.IndexByte(rest, ' ')
		if j <= 0 { // empty header fields (double spaces) are malformed
			return Message{}, fmt.Errorf("syslogmsg: truncated RFC5424 header in %q", line)
		}
		fields[i] = rest[:j]
		rest = rest[j+1:]
	}
	ts, err := time.Parse(time.RFC3339, fields[0])
	if err != nil {
		return Message{}, fmt.Errorf("syslogmsg: bad RFC5424 timestamp %q: %w", fields[0], err)
	}
	host, msgid := fields[1], fields[4]
	if host == "-" {
		return Message{}, fmt.Errorf("syslogmsg: nil hostname in %q", line)
	}
	// Structured data: "-" or one-or-more [ ... ] blocks (skipped; router
	// syslogs carry their payload in MSG).
	if strings.HasPrefix(rest, "-") {
		rest = strings.TrimPrefix(rest, "-")
		rest = strings.TrimPrefix(rest, " ")
	} else {
		for strings.HasPrefix(rest, "[") {
			end := strings.IndexByte(rest, ']')
			if end < 0 {
				return Message{}, fmt.Errorf("syslogmsg: unterminated structured data in %q", line)
			}
			rest = rest[end+1:]
		}
		rest = strings.TrimPrefix(rest, " ")
	}
	code := msgid
	detail := rest
	if code == "-" {
		// No MSGID: fall back to the first token of MSG as the code, the
		// common shape for routers that put "LINK-3-UPDOWN: ..." in MSG.
		if j := strings.IndexByte(detail, ' '); j > 0 {
			code = strings.TrimSuffix(strings.TrimPrefix(detail[:j], "%"), ":")
			detail = strings.TrimSpace(detail[j+1:])
		}
	}
	if code == "" || code == "-" {
		return Message{}, fmt.Errorf("syslogmsg: no message type in %q", line)
	}
	return Message{
		Index:  index,
		Time:   ts.UTC().Truncate(time.Second),
		Router: host,
		Code:   code,
		Detail: detail,
	}, nil
}

// FormatRFC3164 renders a message in BSD syslog form with the given pri
// value, for test fixtures and interop tooling.
func FormatRFC3164(m *Message, pri int) string {
	return fmt.Sprintf("<%d>%s %s %%%s: %s",
		pri, m.Time.Format("Jan _2 15:04:05"), m.Router, m.Code, m.Detail)
}

// FormatRFC5424 renders a message in RFC 5424 form with the given pri.
func FormatRFC5424(m *Message, pri int) string {
	return fmt.Sprintf("<%d>1 %s %s router - %s - %s",
		pri, m.Time.UTC().Format(time.RFC3339), m.Router, m.Code, m.Detail)
}
