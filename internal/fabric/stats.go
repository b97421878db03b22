package fabric

// StatKind says how the cells registered under one name fold into one
// value, and whether the samplers of a traced run plot them over time.
type StatKind uint8

// Stat kinds.
const (
	StatCounter StatKind = iota // events counted; folds by sum
	StatPeak                    // a maximum seen; folds by max
	StatLevel                   // an instantaneous level, sampled into traces; folds by max
)

// stat is one registration in a node's table.
type stat struct {
	name string
	kind StatKind
	read func() float64
}

// Gauge registers a value computed on read, folded as kind says.
func (n *Node) Gauge(name string, kind StatKind, read func() float64) {
	n.stats = append(n.stats, stat{name, kind, read})
}

// Counter registers a counter cell on the node and returns it. Every
// registration owns its cell — K replicas, a restarted replica's successor
// and several clients on one node each append their own under the same
// name, and reads fold them — so a layer keeps the pointer, bumps it as a
// plain increment and reads its own count back through it.
func (n *Node) Counter(name string) *uint64 { return n.cell(name, StatCounter) }

// Peak registers a high-watermark cell: its owner raises it, folds take
// the maximum.
func (n *Node) Peak(name string) *uint64 { return n.cell(name, StatPeak) }

func (n *Node) cell(name string, kind StatKind) *uint64 {
	c := new(uint64)
	n.Gauge(name, kind, func() float64 { return float64(*c) })
	return c
}

// EachStat calls fn for every registration on the node, in registration
// order (a name registered twice is seen twice).
func (n *Node) EachStat(fn func(name string, kind StatKind, value float64)) {
	for _, s := range n.stats {
		fn(s.name, s.kind, s.read())
	}
}

// Fold reads the tables of the given nodes — and of no other node of their
// network — into one value per name: the one loop every consumer of a
// counter uses, a read-out that is never on a message's path. A name
// nothing registered reads 0.
func Fold(nodes ...*Node) map[string]float64 {
	out := map[string]float64{}
	for _, n := range nodes {
		for _, s := range n.stats {
			if v := s.read(); s.kind == StatCounter {
				out[s.name] += v
			} else {
				out[s.name] = max(out[s.name], v)
			}
		}
	}
	return out
}
