package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Peer is one member of the serving ring: a stable name (what the ring
// hashes, what the ownership header carries) and the URL the peer client
// dials. Keeping the two apart matters: dial addresses may change across
// restarts (containers, port-zero test topologies) without remapping a single
// key, because ownership is a pure function of the name set.
type Peer struct {
	Name string
	URL  string
}

// ParsePeers parses a comma-separated peer list of [name=]url entries, e.g.
//
//	a=http://10.0.0.1:8080,b=http://10.0.0.2:8080
//
// A bare URL is its own name — fine for static production fleets where
// addresses are stable identities.
func ParsePeers(spec string) ([]Peer, error) {
	var peers []Peer
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		p := Peer{Name: field, URL: field}
		// A name is anything before the first '=' that does not look like the
		// start of a URL (scheme separators contain "://", never a bare '=').
		if name, url, ok := strings.Cut(field, "="); ok && !strings.Contains(name, "/") {
			if name == "" || url == "" {
				return nil, fmt.Errorf("cluster: peer %q is not [name=]url", field)
			}
			p = Peer{Name: name, URL: url}
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		seen[p.Name] = true
		peers = append(peers, p)
	}
	return peers, nil
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	peer string
}

// Ring maps content-address keys to owner peers by consistent hashing: each
// peer name is hashed onto a circle at vnodes points, a key is owned by the
// first point clockwise of its own hash. The mapping is a pure function of
// the sorted peer-name set — membership change (a restarted fleet with an
// edited -peers list) rehashes deterministically, and adding or removing one
// peer only remaps the keys that peer gains or loses.
type Ring struct {
	points []ringPoint
	peers  []Peer
	byName map[string]Peer
}

// vnodes is the number of ring points per peer: it balances ownership evenly
// enough for small static fleets while keeping the ring tiny.
const vnodes = 64

// NewRing builds the ring over the peer set.
func NewRing(peers []Peer) *Ring {
	r := &Ring{byName: make(map[string]Peer, len(peers))}
	r.peers = append(r.peers, peers...)
	sort.Slice(r.peers, func(i, j int) bool { return r.peers[i].Name < r.peers[j].Name })
	for _, p := range r.peers {
		r.byName[p.Name] = p
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", p.Name, v)), peer: p.Name})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between peers resolve by name so the mapping stays a
		// pure function of the peer set, never of insertion order.
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// Owner returns the peer owning key (a hex content address). An empty ring
// owns nothing.
func (r *Ring) Owner(key string) (Peer, bool) {
	if r == nil || len(r.points) == 0 {
		return Peer{}, false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.byName[r.points[i].peer], true
}

// Peers returns the members in name order.
func (r *Ring) Peers() []Peer {
	if r == nil {
		return nil
	}
	return append([]Peer(nil), r.peers...)
}

// ringHash is the circle position of a name or key: FNV-64a, identical on
// every platform, so every replica computes the identical ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
