// Package locdict implements the paper's location dictionary (§4.1.2).
//
// A router syslog message carries a router id, but the network condition it
// describes usually lives at a finer location: a slot, a port, a physical or
// logical interface. The dictionary is built offline from router configs and
// answers the questions the online system needs:
//
//   - what locations exist on each router and how they nest (Figure 3's
//     hierarchy: router → slot → port → interface, with logical interfaces
//     such as multilink bundles mapped onto physical members);
//   - which interface owns which IP address;
//   - which locations on *different* routers are connected: the two ends of
//     a link (inferred by matching /30 subnets), a BGP session, or a
//     configured secondary path/tunnel.
//
// Two predicates drive grouping: SpatialMatch (same-router closeness: equal,
// ancestor/descendant, or bundle-sibling locations) and Connected
// (cross-router closeness: endpoints of the same link/session/path).
package locdict

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"syslogdigest/internal/netconf"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/textutil"
)

// Level is a rung of the location hierarchy, ordered from finest to
// coarsest. Scoring weights grow by 10x per level (see Weight), matching the
// paper's "the value of lm higher level is several (e.g. 10) times of lower
// level".
type Level int

const (
	// LevelInterface covers physical and logical L3 interfaces (finest).
	LevelInterface Level = iota
	// LevelPort is a physical port position, e.g. "1/0".
	LevelPort
	// LevelSlot is a slot / linecard position.
	LevelSlot
	// LevelRouter is the whole router (coarsest).
	LevelRouter
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case LevelInterface:
		return "interface"
	case LevelPort:
		return "port"
	case LevelSlot:
		return "slot"
	case LevelRouter:
		return "router"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Weight returns the importance weight of the level: 1, 10, 100, 1000.
func (l Level) Weight() float64 {
	w := 1.0
	for i := Level(0); i < l; i++ {
		w *= 10
	}
	return w
}

// Location is one place in the network. Name is empty at router level; at
// slot level it is the decimal slot number; at port level "slot/port"; at
// interface level the configured interface name.
type Location struct {
	Router string
	Level  Level
	Name   string
}

// Key returns a canonical string key for map use and presentation.
func (loc Location) Key() string {
	if loc.Level == LevelRouter {
		return loc.Router
	}
	return loc.Router + " " + loc.Level.String() + " " + loc.Name
}

// ParseKey is the inverse of Key for a location whose router is already
// known: checkpoints serialize locations as their canonical key string, and
// restore recovers the struct. The parse is exact for every Key output —
// the router prefix is supplied, the level word contains no space, and
// everything after it is the name verbatim.
func ParseKey(router, key string) (Location, error) {
	if key == router {
		return RouterLoc(router), nil
	}
	rest, ok := strings.CutPrefix(key, router+" ")
	if !ok {
		return Location{}, fmt.Errorf("locdict: location key %q does not extend router %q", key, router)
	}
	word, name, _ := strings.Cut(rest, " ")
	var lvl Level
	switch word {
	case "interface":
		lvl = LevelInterface
	case "port":
		lvl = LevelPort
	case "slot":
		lvl = LevelSlot
	default:
		return Location{}, fmt.Errorf("locdict: location key %q has unknown level %q", key, word)
	}
	return Location{Router: router, Level: lvl, Name: name}, nil
}

// RouterLoc builds a router-level location.
func RouterLoc(router string) Location {
	return Location{Router: router, Level: LevelRouter}
}

// IntfLoc builds an interface-level location.
func IntfLoc(router, intf string) Location {
	return Location{Router: router, Level: LevelInterface, Name: intf}
}

// Intf describes one configured interface and its position in the
// hierarchy.
type Intf struct {
	Name    string
	IP      string
	Port    string   // "slot/port" position, "" for logical/loopback
	Slot    int      // -1 when unknown (logical interfaces, loopbacks)
	Bundle  string   // parent bundle interface, "" if none
	Members []string // member interfaces when this is a bundle
	// Peer identifies the far end when this interface terminates an
	// inferred link; empty when not a link endpoint.
	PeerRouter string
	PeerIntf   string
}

// RouterDict is one router's slice of the dictionary.
type RouterDict struct {
	Name   string
	Region string
	Vendor syslogmsg.Vendor
	intfs  map[string]*Intf // key: lower-cased interface name
	byIP   map[string]string
	slots  map[int]bool
	ports  map[string]bool // "slot/port" positions seen on this router
}

// Intf returns the named interface (case-insensitive), or nil.
func (r *RouterDict) Intf(name string) *Intf {
	return r.intfs[strings.ToLower(name)]
}

// HasSlot reports whether the slot number is configured on this router.
func (r *RouterDict) HasSlot(slot int) bool { return r.slots[slot] }

// HasPort reports whether the "slot/port" position is configured.
func (r *RouterDict) HasPort(port string) bool { return r.ports[port] }

// Link is one inferred point-to-point adjacency.
type Link struct {
	A, B         string
	AIntf, BIntf string
}

// Session is one inferred BGP peering.
type Session struct {
	A, B     string
	AIP, BIP string
	VRF      string
}

// Path is one configured secondary path/tunnel between two routers.
type Path struct {
	A, B string
	Name string
	Hops []string
}

// Dictionary is the full location knowledge base.
type Dictionary struct {
	routers  map[string]*RouterDict
	links    []Link
	sessions []Session
	paths    []Path

	ipOwner map[string]ipRef // every configured IP → (router, intf)
	// connected indexes router-pair connectivity (links, sessions, paths)
	// by unordered router-pair key for O(1) Connected checks.
	connected map[string]bool
	// linkPeer maps "router|intf" (lower-cased) to the far end.
	linkPeer map[string]endpoint
	// sessionPeer maps "router|peerIP" to the peer router name.
	sessionPeer map[string]string

	// Spatial-match interning (built once at Build): every canonical
	// location gets a dense ID (LocID) and a spatEntry with its interned
	// ancestor chain and bundle symbols, so SpatialMatchID on two interned
	// locations is integer comparisons with no Ancestors allocation.
	// Locations the dictionary has never seen fall back to
	// SpatialMatchLinear.
	spat     map[Location]int32
	spatEnt  []spatEntry
	spatLocs []Location       // id -> location, for the fill pass
	nameSym  map[string]int32 // lower-cased interface name -> symbol
}

// spatEntry is one interned location's precomputed match state.
type spatEntry struct {
	anc    [3]int32 // ancestor IDs, self excluded, coarser last
	router int32    // ID of the location's router-level location (its own, at router level)
	nanc   int8     // live prefix of anc
	level  Level
	name   int32 // interface-name symbol, -1 unless interface-level
	bundle int32 // parent-bundle name symbol, -1 when none
}

type ipRef struct {
	Router string
	Intf   string
}

type endpoint struct {
	Router string
	Intf   string
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Routers returns the number of routers in the dictionary.
func (d *Dictionary) Routers() int { return len(d.routers) }

// RouterNames returns the configured router names, sorted.
func (d *Dictionary) RouterNames() []string {
	names := make([]string, 0, len(d.routers))
	for r := range d.routers {
		names = append(names, r)
	}
	sort.Strings(names)
	return names
}

// Region returns the configured region of a router ("" when unknown).
func (d *Dictionary) Region(router string) string {
	if r := d.routers[router]; r != nil {
		return r.Region
	}
	return ""
}

// Links returns all inferred links.
func (d *Dictionary) Links() []Link { return d.links }

// Sessions returns all inferred BGP sessions.
func (d *Dictionary) Sessions() []Session { return d.sessions }

// Paths returns all configured secondary paths.
func (d *Dictionary) Paths() []Path { return d.paths }

// ResolveIP returns the owner of a configured IP address.
func (d *Dictionary) ResolveIP(ip string) (router, intf string, ok bool) {
	ref, ok := d.ipOwner[ip]
	return ref.Router, ref.Intf, ok
}

// LinkPeer returns the far end of the link terminating at (router, intf).
func (d *Dictionary) LinkPeer(router, intf string) (peerRouter, peerIntf string, ok bool) {
	ep, ok := d.linkPeer[router+"|"+strings.ToLower(intf)]
	return ep.Router, ep.Intf, ok
}

// SessionPeer returns the router at the far end of the BGP session that
// (router) has with peerIP.
func (d *Dictionary) SessionPeer(router, peerIP string) (string, bool) {
	p, ok := d.sessionPeer[router+"|"+peerIP]
	return p, ok
}

// slotOfName extracts the slot number from an interface name, -1 when the
// name carries no physical position (Loopback0, Multilink3, lag-1, system).
func slotOfName(name string) (slot int, port string) {
	path := name
	if stem, p, ok := textutil.InterfaceStem(name); ok {
		if strings.EqualFold(stem, "Multilink") || strings.EqualFold(stem, "Loopback") ||
			strings.EqualFold(stem, "Tunnel") || strings.EqualFold(stem, "Bundle-Ether") ||
			strings.EqualFold(stem, "Vlan") || strings.EqualFold(stem, "Port-channel") {
			return -1, ""
		}
		path = p
	}
	segs := strings.Split(path, "/")
	if len(segs) < 2 {
		return -1, ""
	}
	// First segment must be purely numeric to be a slot.
	var s int
	if _, err := fmt.Sscanf(segs[0], "%d", &s); err != nil {
		return -1, ""
	}
	if fmt.Sprintf("%d", s) != segs[0] {
		return -1, ""
	}
	// Port = slot/second segment with any .sub/:chan tail stripped.
	second := segs[1]
	if i := strings.IndexAny(second, ".:"); i >= 0 {
		second = second[:i]
	}
	return s, segs[0] + "/" + second
}

// Build constructs the dictionary from parsed configs. Link inference pairs
// interfaces sharing a /30 (or smaller) subnet across two routers; session
// inference resolves BGP neighbor IPs against configured addresses; path
// inference resolves tunnel destination IPs.
func Build(configs []*netconf.Config) (*Dictionary, error) {
	d := &Dictionary{
		routers:     make(map[string]*RouterDict),
		ipOwner:     make(map[string]ipRef),
		connected:   make(map[string]bool),
		linkPeer:    make(map[string]endpoint),
		sessionPeer: make(map[string]string),
	}

	type subnetEnd struct {
		router, intf string
	}
	subnets := make(map[string][]subnetEnd)

	for _, cfg := range configs {
		if cfg.Hostname == "" {
			return nil, fmt.Errorf("locdict: config without hostname")
		}
		if d.routers[cfg.Hostname] != nil {
			return nil, fmt.Errorf("locdict: duplicate router %q", cfg.Hostname)
		}
		rd := &RouterDict{
			Name:   cfg.Hostname,
			Region: cfg.Region,
			Vendor: cfg.Vendor,
			intfs:  make(map[string]*Intf),
			byIP:   make(map[string]string),
			slots:  make(map[int]bool),
			ports:  make(map[string]bool),
		}
		d.routers[cfg.Hostname] = rd

		for i := range cfg.Interfaces {
			ic := &cfg.Interfaces[i]
			slot, port := slotOfName(ic.Name)
			info := &Intf{
				Name:   ic.Name,
				IP:     ic.IP,
				Slot:   slot,
				Port:   port,
				Bundle: ic.Bundle,
			}
			rd.intfs[strings.ToLower(ic.Name)] = info
			if slot >= 0 {
				rd.slots[slot] = true
			}
			if port != "" {
				rd.ports[port] = true
			}
			if ic.IP != "" {
				rd.byIP[ic.IP] = ic.Name
				if prev, dup := d.ipOwner[ic.IP]; dup {
					return nil, fmt.Errorf("locdict: IP %s configured on both %s/%s and %s/%s",
						ic.IP, prev.Router, prev.Intf, cfg.Hostname, ic.Name)
				}
				d.ipOwner[ic.IP] = ipRef{Router: cfg.Hostname, Intf: ic.Name}
				// Only numbered point-to-point interfaces participate in
				// link inference; loopbacks (/32) cannot pair.
				if ic.PrefixLen >= 24 && ic.PrefixLen < 32 {
					key, err := netconf.SubnetKey(ic.IP, ic.PrefixLen)
					if err != nil {
						return nil, fmt.Errorf("locdict: %s/%s: %v", cfg.Hostname, ic.Name, err)
					}
					subnets[key] = append(subnets[key], subnetEnd{cfg.Hostname, ic.Name})
				}
			}
		}
		// Controllers occupy physical positions too.
		for _, ctl := range cfg.Controllers {
			if i := strings.IndexByte(ctl.Path, '/'); i > 0 {
				var s int
				if _, err := fmt.Sscanf(ctl.Path[:i], "%d", &s); err == nil {
					rd.slots[s] = true
					rd.ports[ctl.Path] = true
				}
			}
		}
		// Wire bundle membership both directions.
		for _, info := range rd.intfs {
			if info.Bundle != "" {
				if parent := rd.Intf(info.Bundle); parent != nil {
					parent.Members = append(parent.Members, info.Name)
				}
			}
		}
	}

	// Link inference.
	for _, ends := range subnets {
		if len(ends) != 2 || ends[0].router == ends[1].router {
			continue
		}
		a, b := ends[0], ends[1]
		d.links = append(d.links, Link{A: a.router, AIntf: a.intf, B: b.router, BIntf: b.intf})
		d.connected[pairKey(a.router, b.router)] = true
		d.linkPeer[a.router+"|"+strings.ToLower(a.intf)] = endpoint{b.router, b.intf}
		d.linkPeer[b.router+"|"+strings.ToLower(b.intf)] = endpoint{a.router, a.intf}
		// Bundle members inherit the peering (a member flap is an event on
		// the same link).
		wireMembers := func(side subnetEnd, far endpoint) {
			rd := d.routers[side.router]
			if info := rd.Intf(side.intf); info != nil {
				info.PeerRouter, info.PeerIntf = far.Router, far.Intf
				for _, m := range info.Members {
					d.linkPeer[side.router+"|"+strings.ToLower(m)] = far
					if mi := rd.Intf(m); mi != nil {
						mi.PeerRouter, mi.PeerIntf = far.Router, far.Intf
					}
				}
			}
		}
		wireMembers(a, endpoint{b.router, b.intf})
		wireMembers(b, endpoint{a.router, a.intf})
	}

	// Session inference: a neighbor IP owned by another router forms a
	// session. Deduplicate by unordered pair + VRF.
	seenSess := make(map[string]bool)
	for _, cfg := range configs {
		for _, nb := range cfg.Neighbors {
			ref, ok := d.ipOwner[nb.IP]
			if !ok || ref.Router == cfg.Hostname {
				continue
			}
			key := pairKey(cfg.Hostname, ref.Router) + "|" + nb.VRF
			if seenSess[key] {
				continue
			}
			seenSess[key] = true
			var localIP string
			if lb := cfg.Loopback(); lb != nil {
				localIP = lb.IP
			}
			d.sessions = append(d.sessions, Session{
				A: cfg.Hostname, B: ref.Router, AIP: localIP, BIP: nb.IP, VRF: nb.VRF,
			})
			d.connected[pairKey(cfg.Hostname, ref.Router)] = true
			d.sessionPeer[cfg.Hostname+"|"+nb.IP] = ref.Router
			if localIP != "" {
				d.sessionPeer[ref.Router+"|"+localIP] = cfg.Hostname
			}
		}
	}

	pathsFromTunnels(d, configs)

	d.buildSpatialIndex()
	return d, nil
}

// pathsFromTunnels infers configured secondary paths.
func pathsFromTunnels(d *Dictionary, configs []*netconf.Config) {
	// Path inference from tunnels.
	seenPath := make(map[string]bool)
	for _, cfg := range configs {
		for _, t := range cfg.Tunnels {
			ref, ok := d.ipOwner[t.DestinationIP]
			if !ok || ref.Router == cfg.Hostname {
				continue
			}
			key := pairKey(cfg.Hostname, ref.Router)
			if seenPath[key+"|"+t.Name] {
				continue
			}
			seenPath[key+"|"+t.Name] = true
			d.paths = append(d.paths, Path{A: cfg.Hostname, B: ref.Router, Name: t.Name, Hops: t.Hops})
			d.connected[key] = true
			// Intermediate hops participate in the path too: a failure on a
			// hop router can be part of the same event.
			for _, h := range t.Hops {
				d.connected[pairKey(cfg.Hostname, h)] = true
				d.connected[pairKey(ref.Router, h)] = true
			}
		}
	}
}

// buildSpatialIndex interns every canonical location the dictionary can
// produce (router, slot, port, and interface levels, plus any ancestor
// locations those generate) and precomputes each one's ancestor-ID chain
// and bundle symbols. Derived state only: rebuildable from the maps above,
// never serialized.
func (d *Dictionary) buildSpatialIndex() {
	d.spat = make(map[Location]int32)
	d.nameSym = make(map[string]int32)
	for _, rd := range d.routers {
		d.intern(RouterLoc(rd.Name))
		for s := range rd.slots {
			d.intern(Location{Router: rd.Name, Level: LevelSlot, Name: strconv.Itoa(s)})
		}
		for p := range rd.ports {
			d.intern(Location{Router: rd.Name, Level: LevelPort, Name: p})
		}
		for _, info := range rd.intfs {
			d.intern(IntfLoc(rd.Name, info.Name))
		}
	}
	// Fill pass: resolving ancestors may intern further locations (a port
	// name derived from an interface that no config listed directly), so
	// iterate by index over the growing table.
	for id := 0; id < len(d.spatLocs); id++ {
		loc := d.spatLocs[id]
		e := spatEntry{level: loc.Level, name: -1, bundle: -1, router: d.intern(RouterLoc(loc.Router))}
		// A chain is at most interface → port → slot → router, so its
		// ancestors fit anc.
		for _, a := range d.Ancestors(loc)[1:] {
			e.anc[e.nanc] = d.intern(a)
			e.nanc++
		}
		if loc.Level == LevelInterface {
			e.name = d.symbol(strings.ToLower(loc.Name))
			if rd := d.routers[loc.Router]; rd != nil {
				if info := rd.Intf(loc.Name); info != nil && info.Bundle != "" {
					e.bundle = d.symbol(strings.ToLower(info.Bundle))
				}
			}
		}
		d.spatEnt[id] = e
	}
}

// intern assigns (or returns) the dense ID for a location.
func (d *Dictionary) intern(loc Location) int32 {
	if id, ok := d.spat[loc]; ok {
		return id
	}
	id := int32(len(d.spatLocs))
	d.spat[loc] = id
	d.spatLocs = append(d.spatLocs, loc)
	d.spatEnt = append(d.spatEnt, spatEntry{name: -1, bundle: -1})
	return id
}

// symbol assigns (or returns) the dense symbol for a lower-cased name.
func (d *Dictionary) symbol(s string) int32 {
	if sym, ok := d.nameSym[s]; ok {
		return sym
	}
	sym := int32(len(d.nameSym))
	d.nameSym[s] = sym
	return sym
}
