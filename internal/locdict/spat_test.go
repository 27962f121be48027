package locdict

import (
	"math/rand"
	"strings"
	"testing"

	"syslogdigest/internal/netconf"
	"syslogdigest/internal/syslogmsg"
)

// mangle returns location variants the intern table has never seen:
// case-flipped and truncated names. The fast path must hand these to the
// linear reference, not guess.
func mangle(rng *rand.Rand, loc Location) Location {
	switch rng.Intn(3) {
	case 0:
		loc.Name = strings.ToUpper(loc.Name)
	case 1:
		loc.Name = strings.ToLower(loc.Name)
	default:
		if len(loc.Name) > 2 {
			loc.Name = loc.Name[:len(loc.Name)-1]
		}
	}
	return loc
}

// TestSpatialMatchIndexedMatchesLinear is the differential test for the
// interned fast path: over random generated topologies, every pair of
// sampled locations — canonical, fabricated, and mangled — must match
// identically under SpatialMatch and SpatialMatchLinear.
func TestSpatialMatchIndexedMatchesLinear(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		d := randomNetworkDict(t, seed, 12)
		rng := rand.New(rand.NewSource(seed * 31))
		locs := randomLocations(rng, d, 60)
		for i, l := range locs {
			if rng.Intn(3) == 0 {
				locs[i] = mangle(rng, l)
			}
		}
		for _, a := range locs {
			for _, b := range locs {
				if got, want := d.SpatialMatch(a, b), d.SpatialMatchLinear(a, b); got != want {
					t.Fatalf("seed %d: SpatialMatch(%+v, %+v) = %v, linear = %v", seed, a, b, got, want)
				}
			}
		}

		// The ID form directly, as the rule windows call it: every pair of
		// locations interned for the busiest router, and every pair between
		// it and one other router (bundle symbols are shared across routers,
		// so only the router check keeps those apart).
		perRouter := make(map[string][]int32)
		for id, loc := range d.spatLocs {
			if got, ok := d.LocID(loc); !ok || got != int32(id) {
				t.Fatalf("seed %d: LocID(%+v) = %d, %v; interned as %d", seed, loc, got, ok, id)
			}
			// Every interned entry carries its whole ancestor chain.
			e, chain := d.spatEnt[id], d.Ancestors(loc)
			if int(e.nanc) != len(chain)-1 {
				t.Fatalf("seed %d: %+v holds %d ancestors, chain has %d", seed, loc, e.nanc, len(chain)-1)
			}
			for i, a := range chain[1:] {
				if got, _ := d.LocID(a); e.anc[i] != got {
					t.Fatalf("seed %d: %+v ancestor %d is ID %d, want %d (%+v)", seed, loc, i, e.anc[i], got, a)
				}
			}
			perRouter[loc.Router] = append(perRouter[loc.Router], int32(id))
		}
		var busiest, other string
		for r, ids := range perRouter {
			if len(ids) > len(perRouter[busiest]) || (len(ids) == len(perRouter[busiest]) && r < busiest) {
				busiest = r
			}
		}
		for r := range perRouter {
			if r != busiest && (other == "" || r < other) {
				other = r
			}
		}
		matches := 0
		targets := append(append([]int32(nil), perRouter[busiest]...), perRouter[other]...)
		for _, a := range perRouter[busiest] {
			for _, b := range targets {
				got, want := d.SpatialMatchID(a, b), d.SpatialMatchLinear(d.spatLocs[a], d.spatLocs[b])
				if got != want {
					t.Fatalf("seed %d: SpatialMatchID(%+v, %+v) = %v, linear = %v", seed, d.spatLocs[a], d.spatLocs[b], got, want)
				}
				if got && a != b {
					matches++
				}
			}
		}
		if matches == 0 {
			t.Fatalf("seed %d: no two distinct locations of %s match; the pair sweep checked nothing", seed, busiest)
		}
	}
}

// TestSpatialMatchBundleSiblings pins the bundle cases on the fast path:
// two members of one multilink bundle match each other and their parent.
func TestSpatialMatchBundleSiblings(t *testing.T) {
	d := randomNetworkDict(t, 3, 16)
	checked := 0
	for _, lk := range d.Links() {
		info := d.routers[lk.A].Intf(lk.AIntf)
		if info == nil || len(info.Members) < 2 {
			continue
		}
		m0 := IntfLoc(lk.A, info.Members[0])
		m1 := IntfLoc(lk.A, info.Members[1])
		parent := IntfLoc(lk.A, info.Name)
		for _, pair := range [][2]Location{{m0, m1}, {m0, parent}, {parent, m1}} {
			if !d.SpatialMatch(pair[0], pair[1]) {
				t.Fatalf("bundle pair %+v / %+v did not match", pair[0], pair[1])
			}
			if !d.SpatialMatchLinear(pair[0], pair[1]) {
				t.Fatalf("linear rejects bundle pair %+v / %+v", pair[0], pair[1])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Skip("topology produced no multi-member bundles; raise MultilinkFraction")
	}
}

func BenchmarkMicroSpatialMatchIndexed(b *testing.B) {
	net := benchDict(b)
	a, c := pickTwo(b, net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SpatialMatch(a, c)
	}
}

func BenchmarkMicroSpatialMatchLinear(b *testing.B) {
	net := benchDict(b)
	a, c := pickTwo(b, net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SpatialMatchLinear(a, c)
	}
}

func benchDict(b *testing.B) *Dictionary {
	b.Helper()
	net, err := netconf.Generate(netconf.Spec{
		Routers: 16, Seed: 5, Vendor: syslogmsg.VendorV1,
		MultilinkFraction: 0.3, TunnelPairs: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := Build(net.Configs)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// pickTwo selects two interface locations on one router.
func pickTwo(b *testing.B, d *Dictionary) (Location, Location) {
	b.Helper()
	for _, lk := range d.Links() {
		ifs := interfaces(d, lk.A)
		if len(ifs) >= 2 {
			return IntfLoc(lk.A, ifs[0].Name), IntfLoc(lk.A, ifs[1].Name)
		}
	}
	b.Skip("no router with two interfaces")
	return Location{}, Location{}
}
