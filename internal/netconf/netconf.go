// Package netconf is the router-configuration substrate for SyslogDigest.
//
// The paper builds its location dictionary not from vendor manuals but from
// router configs ("a router almost always writes to syslog messages only the
// location information it knows, i.e., those configured in the router").
// This package provides everything needed to stand in for the configs of the
// two studied networks:
//
//   - a vendor-neutral Config model (hostname, interfaces, controllers, BGP
//     neighbors, tunnels, region);
//   - a renderer and parser for two config dialects: a Cisco-like block
//     syntax for vendor V1 and a flatter line syntax for vendor V2;
//   - a deterministic topology generator that produces a backbone-shaped
//     network (core mesh + edge attachments) with /30 link addressing,
//     multilink bundles, iBGP sessions, and MPLS tunnels.
package netconf

import (
	"fmt"
	"strconv"
	"strings"

	"syslogdigest/internal/syslogmsg"
)

// Interface is one configured L3 interface.
type Interface struct {
	Name        string // e.g. "Serial1/0/10:0" (V1) or "1/1/1" (V2)
	IP          string // dotted quad, "" for unnumbered
	PrefixLen   int    // e.g. 30
	Description string // free-form; generator writes "link to <router> <intf>"
	Bundle      string // multilink/bundle parent interface name, "" if none
}

// Controller is a physical controller (e.g. a T3 card position).
type Controller struct {
	Kind string // e.g. "T3", "SONET"
	Path string // slot/port, e.g. "2/0"
}

// BGPNeighbor is one configured BGP peering.
type BGPNeighbor struct {
	IP       string
	RemoteAS int
	VRF      string // route distinguisher like "1000:1001", "" for default VRF
}

// Tunnel is an MPLS tunnel / static path to another router. The paper's IPTV
// network configures a secondary multi-hop layer-2 path between multicast
// tree neighbors; Hops records the intermediate routers for that case.
type Tunnel struct {
	Name          string
	DestinationIP string   // loopback IP of the far end
	Hops          []string // intermediate router hostnames (may be empty)
}

// Config is the parsed configuration of one router.
type Config struct {
	Hostname    string
	Vendor      syslogmsg.Vendor
	Region      string // coarse geography (e.g. "TX"), used by ticket matching
	LocalAS     int
	Interfaces  []Interface
	Controllers []Controller
	Neighbors   []BGPNeighbor
	Tunnels     []Tunnel
}

// Loopback returns the router's loopback interface, or nil when none is
// configured. By generator convention the loopback is named "Loopback0" (V1)
// or "system" (V2).
func (c *Config) Loopback() *Interface {
	for i := range c.Interfaces {
		n := c.Interfaces[i].Name
		if strings.EqualFold(n, "Loopback0") || n == "system" {
			return &c.Interfaces[i]
		}
	}
	return nil
}

// PrefixLenToMask converts a prefix length to a dotted-quad netmask.
func PrefixLenToMask(n int) (string, error) {
	if n < 0 || n > 32 {
		return "", fmt.Errorf("netconf: invalid prefix length %d", n)
	}
	var bits uint32
	if n > 0 {
		bits = ^uint32(0) << (32 - n)
	}
	return fmt.Sprintf("%d.%d.%d.%d", byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits)), nil
}

// MaskToPrefixLen converts a dotted-quad netmask to a prefix length. It
// rejects non-contiguous masks.
func MaskToPrefixLen(mask string) (int, error) {
	ip, err := ParseIPv4(mask)
	if err != nil {
		return 0, fmt.Errorf("netconf: bad mask %q: %w", mask, err)
	}
	n := 0
	for n < 32 && ip&(1<<(31-n)) != 0 {
		n++
	}
	// Remaining bits must be zero.
	if n < 32 && ip<<n != 0 {
		return 0, fmt.Errorf("netconf: non-contiguous mask %q", mask)
	}
	return n, nil
}

// ParseIPv4 parses a dotted quad into a uint32.
func ParseIPv4(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netconf: %q is not dotted quad", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("netconf: bad octet %q in %q", p, s)
		}
		ip = ip<<8 | uint32(v)
	}
	return ip, nil
}

// FormatIPv4 renders a uint32 as a dotted quad.
func FormatIPv4(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// SubnetKey returns the network address of ip/prefixLen as a string key,
// used to pair the two ends of a point-to-point link.
func SubnetKey(ip string, prefixLen int) (string, error) {
	v, err := ParseIPv4(ip)
	if err != nil {
		return "", err
	}
	if prefixLen < 0 || prefixLen > 32 {
		return "", fmt.Errorf("netconf: invalid prefix length %d", prefixLen)
	}
	var mask uint32
	if prefixLen > 0 {
		mask = ^uint32(0) << (32 - prefixLen)
	}
	return fmt.Sprintf("%s/%d", FormatIPv4(v&mask), prefixLen), nil
}
