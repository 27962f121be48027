package locdict

import (
	"strconv"
	"strings"
)

// Ancestors returns the chain from loc up to its router, starting with loc
// itself. For an interface with a known physical position the chain is
// interface → port → slot → router; logical interfaces (bundles, loopbacks)
// go straight to the router unless their bundle members pin them to
// hardware, in which case the first member's position is used (the paper
// maps logical configuration onto the physical hierarchy, Figure 3).
func (d *Dictionary) Ancestors(loc Location) []Location {
	out := []Location{loc}
	if loc.Level == LevelRouter {
		return out
	}
	rd := d.routers[loc.Router]
	switch loc.Level {
	case LevelInterface:
		var slot int = -1
		var port string
		if rd != nil {
			if info := rd.Intf(loc.Name); info != nil {
				slot, port = info.Slot, info.Port
				if slot < 0 && len(info.Members) > 0 {
					if mi := rd.Intf(info.Members[0]); mi != nil {
						slot, port = mi.Slot, mi.Port
					}
				}
			}
		}
		if slot < 0 {
			// Fall back to parsing the name directly; messages can mention
			// interfaces that exist on the router but not in our configs.
			slot, port = slotOfName(loc.Name)
		}
		if port != "" {
			out = append(out, Location{Router: loc.Router, Level: LevelPort, Name: port})
		}
		if slot >= 0 {
			out = append(out, Location{Router: loc.Router, Level: LevelSlot, Name: strconv.Itoa(slot)})
		}
	case LevelPort:
		if i := strings.IndexByte(loc.Name, '/'); i > 0 {
			out = append(out, Location{Router: loc.Router, Level: LevelSlot, Name: loc.Name[:i]})
		}
	case LevelSlot:
		// nothing between slot and router
	}
	out = append(out, RouterLoc(loc.Router))
	return out
}

// SpatialMatch reports whether two locations are "spatially matched" in the
// paper's sense: one can be mapped upward in the hierarchy to the other.
// Equal locations match; a slot matches every interface in it; a router-
// level location matches everything on that router; two members of the same
// bundle match each other (they are the same logical link). Two *different*
// interfaces on the same slot do NOT match — without the ancestor
// relationship there is no evidence they share a condition.
//
// The predicate itself is SpatialMatchID: this form resolves both locations
// to the IDs Build interned them under (every location Normalize can return
// has one) and delegates. A location the dictionary never interned has no
// ID, and the pair goes to SpatialMatchLinear instead.
func (d *Dictionary) SpatialMatch(a, b Location) bool {
	if a.Router != b.Router {
		return false
	}
	if a == b {
		return true
	}
	ia, ok := d.spat[a]
	if !ok {
		return d.SpatialMatchLinear(a, b)
	}
	ib, ok := d.spat[b]
	if !ok {
		return d.SpatialMatchLinear(a, b)
	}
	return d.SpatialMatchID(ia, ib)
}

// LocID returns the dense ID Build interned loc under, and whether it has
// one. IDs are stable for the life of the Dictionary and private to it: a
// caller that sees the same locations repeatedly (the rule windows of
// internal/grouping) resolves each once and matches on the IDs.
func (d *Dictionary) LocID(loc Location) (int32, bool) {
	id, ok := d.spat[loc]
	return id, ok
}

// SpatialMatchID is SpatialMatch on two IDs from LocID: integer comparisons
// over the precomputed ancestor chains and bundle symbols, no hashing and no
// allocation.
func (d *Dictionary) SpatialMatchID(a, b int32) bool {
	if a == b {
		return true
	}
	ea, eb := &d.spatEnt[a], &d.spatEnt[b]
	if ea.router != eb.router {
		return false // bundle symbols are per name, not per router
	}
	for _, x := range ea.anc[:ea.nanc] {
		if x == b {
			return true
		}
	}
	for _, x := range eb.anc[:eb.nanc] {
		if x == a {
			return true
		}
	}
	if ea.level == LevelInterface && eb.level == LevelInterface {
		if ea.bundle >= 0 && ea.bundle == eb.name {
			return true
		}
		if eb.bundle >= 0 && eb.bundle == ea.name {
			return true
		}
		if ea.bundle >= 0 && ea.bundle == eb.bundle {
			return true
		}
	}
	return false
}

// SpatialMatchLinear is the original chain-walking implementation of
// SpatialMatch. It stays in the production path for one case the interned
// form cannot take: a location the dictionary never interned (a message
// from a router with no config, a hand-built Location) has no ID and no
// precomputed ancestors, and walking Ancestors is the exact answer for it.
// Interning such locations on first sight would make the Dictionary mutable
// under concurrent readers. It is also the reference the differential tests
// compare SpatialMatch and SpatialMatchID against.
func (d *Dictionary) SpatialMatchLinear(a, b Location) bool {
	if a.Router != b.Router {
		return false
	}
	if a == b {
		return true
	}
	achain := d.Ancestors(a)
	bchain := d.Ancestors(b)
	// One is an ancestor of the other.
	for _, x := range achain[1:] {
		if x == b {
			return true
		}
	}
	for _, x := range bchain[1:] {
		if x == a {
			return true
		}
	}
	// Bundle siblings / bundle-member relationships collapse to the same
	// logical interface.
	if a.Level == LevelInterface && b.Level == LevelInterface {
		if rd := d.routers[a.Router]; rd != nil {
			ai, bi := rd.Intf(a.Name), rd.Intf(b.Name)
			if ai != nil && bi != nil {
				ab, bb := ai.Bundle, bi.Bundle
				if ab != "" && strings.EqualFold(ab, b.Name) {
					return true
				}
				if bb != "" && strings.EqualFold(bb, a.Name) {
					return true
				}
				if ab != "" && strings.EqualFold(ab, bb) {
					return true
				}
			}
		}
	}
	return false
}

// Connected reports whether two locations on different routers are directly
// connected: the two routers share a link, BGP session, or configured path,
// and — when both locations are interface-level link endpoints — the
// interfaces are the two ends of the same link. Same-router pairs are never
// "connected"; use SpatialMatch for those.
func (d *Dictionary) Connected(a, b Location) bool {
	if a.Router == b.Router {
		return false
	}
	if !d.connected[pairKey(a.Router, b.Router)] {
		return false
	}
	// If both are interface-level and each terminates a link, require the
	// link to be the same one; otherwise router-pair connectivity suffices.
	if a.Level == LevelInterface && b.Level == LevelInterface {
		pa, pai, aok := d.LinkPeer(a.Router, a.Name)
		pb, pbi, bok := d.LinkPeer(b.Router, b.Name)
		if aok && bok {
			aMatches := pa == b.Router && d.sameOrBundle(b.Router, pai, b.Name)
			bMatches := pb == a.Router && d.sameOrBundle(a.Router, pbi, a.Name)
			return aMatches || bMatches
		}
	}
	return true
}

// sameOrBundle reports whether two interface names on one router refer to
// the same logical interface (equal, or one is a bundle containing the
// other).
func (d *Dictionary) sameOrBundle(router, x, y string) bool {
	if strings.EqualFold(x, y) {
		return true
	}
	rd := d.routers[router]
	if rd == nil {
		return false
	}
	xi, yi := rd.Intf(x), rd.Intf(y)
	if xi != nil && xi.Bundle != "" && strings.EqualFold(xi.Bundle, y) {
		return true
	}
	if yi != nil && yi.Bundle != "" && strings.EqualFold(yi.Bundle, x) {
		return true
	}
	if xi != nil && yi != nil && xi.Bundle != "" && strings.EqualFold(xi.Bundle, yi.Bundle) {
		return true
	}
	return false
}

// Normalize resolves a raw location token extracted from a message on the
// given router into a dictionary-grounded Location. It accepts interface
// names ("Serial1/0.10/10:0"), bare port paths ("1/1/1" — a V2 interface or
// a V1 port), slot numbers, and IP addresses owned by the router. Unknown
// tokens yield ok=false.
func (d *Dictionary) Normalize(router, token string) (Location, bool) {
	rd := d.routers[router]
	if rd == nil {
		return Location{}, false
	}
	// Exact interface name (either vendor).
	if info := rd.Intf(token); info != nil {
		return IntfLoc(router, info.Name), true
	}
	// IP address owned by this router.
	if name, ok := rd.byIP[token]; ok {
		return IntfLoc(router, name), true
	}
	// Channelized sub-interface of a configured interface: strip tails
	// until something matches ("Serial1/0.10/10:0" may be logged when only
	// "Serial1/0" is in the config, or vice versa we may know the longer
	// name). Try progressively shorter prefixes at separator boundaries.
	if loc, ok := d.prefixIntf(rd, token); ok {
		return loc, ok
	}
	// Bare slot number.
	if n, ok := atoiNoAlloc(token); ok && rd.HasSlot(n) {
		return Location{Router: router, Level: LevelSlot, Name: token}, true
	}
	// Bare port path like "1/0" or "1/1/1": V2 interfaces are named this
	// way (handled above); otherwise it must name a port position the
	// dictionary knows about — random X/Y-shaped values (PIDs, ratios) do
	// not resolve.
	if i := strings.IndexByte(token, '/'); i > 0 {
		second := token[i+1:]
		if j := strings.IndexAny(second, "/.:"); j >= 0 {
			second = second[:j]
		}
		if _, ok := atoiNoAlloc(second); ok {
			port := token[:i] + "/" + second
			if rd.HasPort(port) {
				return Location{Router: router, Level: LevelPort, Name: port}, true
			}
		}
	}
	return Location{}, false
}

// atoiNoAlloc parses a non-negative decimal integer without the error
// allocation strconv.Atoi pays on non-numeric input — most tokens probed by
// Normalize are not numbers, so the rejection path is the hot path.
func atoiNoAlloc(s string) (int, bool) {
	if len(s) > 0 && s[0] == '+' {
		s = s[1:]
	}
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// prefixIntf matches a token against configured interfaces by prefix at
// separator boundaries, in both directions.
func (d *Dictionary) prefixIntf(rd *RouterDict, token string) (Location, bool) {
	lt := strings.ToLower(token)
	best := ""
	for name := range rd.intfs {
		if len(name) < len(lt) {
			// Config name shorter: token must extend it at a separator.
			if strings.HasPrefix(lt, name) && isSep(lt[len(name)]) && len(name) > len(best) {
				best = name
			}
		} else if len(name) > len(lt) {
			// Config name longer: token is a truncation at a separator.
			if strings.HasPrefix(name, lt) && isSep(name[len(lt)]) && len(name) > len(best) {
				best = name
			}
		}
	}
	if best == "" {
		return Location{}, false
	}
	return IntfLoc(rd.Name, rd.intfs[best].Name), true
}

func isSep(c byte) bool { return c == '.' || c == ':' || c == '/' }
