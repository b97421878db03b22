package reptor

import (
	"fmt"

	"rubin/internal/kvstore"
	"rubin/internal/pbft"
)

// Client routes operations to the responsible COP instance and collects
// BFT-quorum replies: a front-end with one PBFT client per instance.
type Client struct {
	*pbft.FrontEnd
	cfg Config
}

// AddClient creates a client on its own node connected to every replica's
// per-instance client port.
func (g *Group) AddClient() (*Client, error) {
	id := uint32(100 + len(g.clients))
	fe, err := pbft.NewFrontEnd(fmt.Sprintf("client%d", id), id, g.Config.PBFT.F, []*pbft.Hosts{g.Hosts}, g.Config.Instances)
	if err != nil {
		return nil, err
	}
	cl := &Client{FrontEnd: fe, cfg: g.Config}
	g.clients = append(g.clients, cl)
	return cl, nil
}

// Invoke routes one operation to its instance by hash of its bytes; done
// fires on a BFT quorum of matching replies. The returned string is the
// request key the observability layer traces the operation under. Each
// instance executes into a store of its own, so a key written here and
// read through InvokeOp may reach two different stores: E8's put loop is
// Invoke's only caller, and every put it sends writes a fresh key.
func (c *Client) Invoke(op []byte, done func([]byte)) string {
	return c.Clients[c.cfg.Route(op)].Invoke(op, done)
}

// InvokeOp routes one encoded kvstore operation by the state-machine
// keys it touches (kvstore.PlanOp over K partitions). Each instance
// executes into a store of its own that holds only the keys it owns, so a
// key's operations must all be ordered by that instance. A single-key
// operation goes to that instance's ordered path; scans scatter across
// instances; a transaction runs one-phase when its keys share an instance
// and is refused otherwise — COP has no 2PC.
func (c *Client) InvokeOp(op []byte, done func([]byte)) string {
	p := kvstore.PlanOp(op, len(c.Clients))
	switch {
	case p.Route == kvstore.RouteScan:
		return kvstore.ScatterScan(p, len(c.Clients), func(k int, sub []byte, done func([]byte)) string {
			return c.Clients[k].Invoke(sub, done)
		}, done)
	case p.Route == kvstore.RouteCross:
		done([]byte("ERR cross-instance transaction (COP has no 2PC; use the shard layer)"))
		return ""
	}
	return c.Clients[p.Part].Invoke(op, done)
}
