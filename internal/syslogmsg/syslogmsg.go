// Package syslogmsg defines the router syslog message model used throughout
// SyslogDigest, together with parsers and formatters for the two simulated
// vendor syntaxes from the paper's Table 1:
//
//	V1 (Cisco-like):  FACILITY-SEV-MNEMONIC with free-form detail, e.g.
//	                  "LINK-3-UPDOWN Interface Serial1/0, changed state to down"
//	V2 (ALU-like):    MODULE-SEVERITYWORD-event, e.g.
//	                  "SNMP-WARNING-linkDown Interface 0/0/1 is not operational"
//
// On the wire (and in the files this repository reads and writes) a message
// is one line:
//
//	2010-01-10 00:00:15|r1|LINK-3-UPDOWN|Interface Serial13/0, changed state to down
//
// i.e. timestamp, originating router, message type (error code) and detail,
// separated by '|'. This mirrors the minimal structure the paper identifies:
// those four fields are the only structure router syslogs reliably have.
package syslogmsg

import (
	"strconv"
	"strings"
	"time"
)

// Vendor identifies the router vendor syntax of a message's error code.
type Vendor int

const (
	// VendorUnknown is reported when the error code matches no known syntax.
	VendorUnknown Vendor = iota
	// VendorV1 is the Cisco-like FACILITY-SEV-MNEMONIC syntax.
	VendorV1
	// VendorV2 is the ALU-like MODULE-SEVERITYWORD-event syntax.
	VendorV2
)

// String returns a short human-readable vendor name.
func (v Vendor) String() string {
	switch v {
	case VendorV1:
		return "V1"
	case VendorV2:
		return "V2"
	default:
		return "unknown"
	}
}

// TimeLayout is the timestamp layout used in serialized messages. Router
// syslog timestamps in the studied networks have one-second granularity
// (the paper sets Smin to 1s for exactly this reason).
const TimeLayout = "2006-01-02 15:04:05"

// Message is one router syslog message. Index is a monotonically increasing
// sequence number assigned by the reader/generator; it is what event digests
// reference so that raw messages can be retrieved later (the paper's "index
// field").
type Message struct {
	Index  uint64
	Time   time.Time
	Router string
	Code   string // message type / error code, e.g. "LINK-3-UPDOWN"
	Detail string // free-form detail text
}

// Format renders the message as its single-line serialized form.
func (m *Message) Format() string {
	return m.Time.Format(TimeLayout) + "|" + m.Router + "|" + m.Code + "|" + m.Detail
}

// String implements fmt.Stringer.
func (m Message) String() string { return m.Format() }

// severityWords maps V2 severity words to a numeric severity on the V1 scale
// (0 = most severe). The mapping is approximate by design: the paper argues
// vendor severities are not comparable across vendors anyway.
var severityWords = map[string]int{
	"CRITICAL": 1,
	"MAJOR":    2,
	"MINOR":    4,
	"WARNING":  5,
	"INFO":     6,
}

// CodeInfo is the decomposition of an error code into vendor syntax parts.
type CodeInfo struct {
	Vendor   Vendor
	Facility string // V1 facility or V2 module
	Severity int    // numeric severity, 0 (highest) .. 7; -1 when unknown
	Mnemonic string // V1 mnemonic or V2 event name
}

// ParseCode decomposes an error code into its vendor-specific parts. Codes
// that match neither syntax yield VendorUnknown with Severity -1 and the
// whole code as Mnemonic; such messages still flow through the pipeline
// (SyslogDigest must not depend on being able to interpret codes).
func ParseCode(code string) CodeInfo {
	parts := strings.SplitN(code, "-", 3)
	if len(parts) == 3 {
		// V1: middle part is a decimal severity 0-7.
		if sev, err := strconv.Atoi(parts[1]); err == nil && sev >= 0 && sev <= 7 {
			return CodeInfo{Vendor: VendorV1, Facility: parts[0], Severity: sev, Mnemonic: parts[2]}
		}
		// V2: middle part is a severity word.
		if sev, ok := severityWords[strings.ToUpper(parts[1])]; ok {
			return CodeInfo{Vendor: VendorV2, Facility: parts[0], Severity: sev, Mnemonic: parts[2]}
		}
	}
	return CodeInfo{Vendor: VendorUnknown, Severity: -1, Mnemonic: code}
}

// SortByTime reports whether a should sort before b in a merged stream:
// primarily by timestamp, then by router name and index for determinism.
func SortByTime(a, b *Message) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	if a.Router != b.Router {
		return a.Router < b.Router
	}
	return a.Index < b.Index
}
