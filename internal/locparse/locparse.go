// Package locparse extracts location information from syslog message text
// (§4.1.2's online half, "Location Parsing" in Figure 1).
//
// A message's detail can embed several location-shaped values: the
// interface the condition occurred on, the neighbor's IP address, sometimes
// remote or outright invalid addresses (scans). Naive pattern matching
// cannot tell them apart; locparse classifies each candidate token by shape
// (textutil) and then grounds it against the location dictionary:
//
//   - values resolving on the originating router become its locations, the
//     finest of which is the message's primary location;
//   - IP addresses owned by *another* router (link far ends, BGP neighbor
//     loopbacks) become peer-router hints used by cross-router grouping;
//   - everything else (scanner addresses, counters that look like paths)
//     grounds to nothing and is dropped.
package locparse

import (
	"strings"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/textutil"
)

// Info is the location outcome for one message.
type Info struct {
	// Primary is the finest location resolved on the originating router;
	// when nothing resolves it degrades to the router itself.
	Primary locdict.Location
	// All contains every distinct on-router location resolved, finest
	// first. It always includes Primary.
	All []locdict.Location
	// PeerRouters are other routers referenced by the message (via IPs
	// they own), deduplicated in order of appearance.
	PeerRouters []string
}

// Parser resolves message locations against a dictionary.
type Parser struct {
	dict *locdict.Dictionary

	// routerOnly holds, per configured router, the shared one-element
	// slice returned as Info.All when a message grounds no finer location
	// — the dominant case on noisy feeds, and without it a fresh
	// allocation per message. It is built once with the parser and never
	// grows, so a feed's unknown or spoofed router names cannot grow it:
	// theirs get a fresh slice. The slices are immutable (len == cap,
	// callers hold All read-only), so sharing them across messages is safe.
	routerOnly map[string][]locdict.Location
}

// New builds a parser.
func New(dict *locdict.Dictionary) *Parser {
	names := dict.RouterNames()
	p := &Parser{dict: dict, routerOnly: make(map[string][]locdict.Location, len(names))}
	locs := make([]locdict.Location, len(names))
	for i, r := range names {
		locs[i] = locdict.RouterLoc(r)
		p.routerOnly[r] = locs[i : i+1 : i+1]
	}
	return p
}

// Parse extracts and grounds the locations of one message.
func (p *Parser) Parse(m *syslogmsg.Message) Info {
	return p.ParseTokens(m, textutil.Tokenize(m.Detail))
}

// ParseTokens is Parse over the message's pre-tokenized detail, letting
// callers that also signature-match the message tokenize it once and share
// the slice. The parser only reads the tokens. Safe for concurrent use:
// the parser and its dictionary are immutable after construction.
func (p *Parser) ParseTokens(m *syslogmsg.Message, toks []string) Info {
	info := Info{Primary: locdict.RouterLoc(m.Router)}

	prevWord := ""
	for _, tok := range toks {
		core, _, _ := textutil.TrimWord(tok)
		if core == "" {
			continue
		}
		class := textutil.Classify(core)
		switch class {
		case textutil.ClassInterface, textutil.ClassPortPath:
			p.ground(m.Router, core, &info)
		case textutil.ClassIPv4:
			// Strip :port or /len decoration before ownership lookup.
			ip := core
			if i := strings.IndexAny(ip, ":/"); i >= 0 {
				ip = ip[:i]
			}
			p.ground(m.Router, ip, &info)
		case textutil.ClassNumber:
			// Bare numbers are locations only in explicit contexts such as
			// "Slot 2" or "slot 2 ...".
			if strings.EqualFold(prevWord, "slot") || strings.EqualFold(prevWord, "linecard") {
				p.ground(m.Router, core, &info)
			}
		}
		prevWord = core
	}

	// Pick the finest resolved location as primary; All is sorted finest
	// first with stable order of appearance within a level.
	if len(info.All) > 0 {
		best := 0
		for i, l := range info.All {
			if l.Level < info.All[best].Level {
				best = i
			}
		}
		info.Primary = info.All[best]
		info.All = append(info.All, locdict.RouterLoc(m.Router))
		sortByLevel(info.All)
	} else {
		// Nothing grounded: All is exactly [RouterLoc], shared across every
		// such message from a configured router.
		if info.All = p.routerOnly[m.Router]; info.All == nil {
			info.All = []locdict.Location{info.Primary}
		}
	}
	return info
}

// ground resolves one candidate token, routing it into locations or peer
// hints; a token that grounds to neither is dropped. Deduplication is a linear scan of the
// accumulated slices — messages carry a handful of candidates, and the scan
// replaces two map allocations on the augment hot path.
func (p *Parser) ground(router, token string, info *Info) {
	if loc, ok := p.dict.Normalize(router, token); ok {
		if !containsLoc(info.All, loc) {
			if info.All == nil {
				// Leave room for the RouterLoc ParseTokens appends at the
				// end — one allocation covers the common single-location
				// message instead of two.
				info.All = make([]locdict.Location, 0, 2)
			}
			info.All = append(info.All, loc)
		}
		return
	}
	// Not ours: maybe a neighbor's address.
	if owner, _, ok := p.dict.ResolveIP(token); ok && owner != router {
		if !containsStr(info.PeerRouters, owner) {
			info.PeerRouters = append(info.PeerRouters, owner)
		}
		return
	}
	// A session peer referenced by an address we do not own (e.g. an
	// eBGP neighbor outside the dictionary) — still a peer hint when the
	// session is configured.
	if peer, ok := p.dict.SessionPeer(router, token); ok {
		if !containsStr(info.PeerRouters, peer) {
			info.PeerRouters = append(info.PeerRouters, peer)
		}
	}
}

func containsLoc(locs []locdict.Location, l locdict.Location) bool {
	for _, x := range locs {
		if x == l {
			return true
		}
	}
	return false
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// sortByLevel stable-sorts locations finest (interface) first.
func sortByLevel(locs []locdict.Location) {
	// Insertion sort keeps it simple and stable for the short slices here.
	for i := 1; i < len(locs); i++ {
		for j := i; j > 0 && locs[j].Level < locs[j-1].Level; j-- {
			locs[j], locs[j-1] = locs[j-1], locs[j]
		}
	}
}
