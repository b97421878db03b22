package pbft_test

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/pbft"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// shape is one deployment reduced to what the identity contract names:
// S groups of hosts, K instances of N replicas on each, and front-ends.
type shape struct {
	loop     *sim.Loop
	network  *fabric.Network
	hosts    [][]*msgnet.Mesh    // [shard][replica]
	replicas [][][]*pbft.Replica // [shard][instance][replica]
	fronts   []*pbft.FrontEnd
}

// TestDeploymentIdentityContract pins, for every way of building a
// deployment, the identities the byte-identical experiment results depend
// on: node names, listening ports, client ids and keyring seeds. Every
// shape is built from the same three parts, so one table covers them. Plain
// PBFT is built two ways: by NewCluster and AddClient, as the repository
// benchmark and this package's tests do, and as one group on one host set
// behind routers, as every experiment does.
func TestDeploymentIdentityContract(t *testing.T) {
	const seed, fronts = 5, 2
	kv := func(int) pbft.Application { return kvstore.New() }
	for _, tc := range []struct {
		s, k, n   int
		hostName  string // Sprintf(shard, replica)
		frontName string // Sprintf(front-end index)
		frontBase int    // number in the first front-end's name
		via       string // tells two builds of one shape apart
		build     func(t *testing.T) shape
	}{
		{1, 1, 4, "r%[2]d", "client%d", 100, "", func(t *testing.T) shape {
			c, err := pbft.NewCluster(transport.KindTCP, pbft.DefaultConfig(), model.Default(), seed, kv)
			must(t, err)
			must(t, c.Start())
			sh := shape{c.Loop, c.Network, [][]*msgnet.Mesh{c.Meshes}, [][][]*pbft.Replica{{c.Replicas}}, nil}
			for i := 0; i < fronts; i++ {
				cl, err := c.AddClient()
				must(t, err)
				sh.fronts = append(sh.fronts, &pbft.FrontEnd{Clients: []*pbft.Client{cl}})
			}
			return sh
		}},
		{1, 1, 4, "r%[2]d", "router%d", 0, ",routers", func(t *testing.T) shape {
			return partitioned(t, shard.NewCOP, 1, seed, fronts)
		}},
		{1, 4, 4, "r%[2]d", "router%d", 0, "", func(t *testing.T) shape {
			return partitioned(t, shard.NewCOP, 4, seed, fronts)
		}},
		{2, 1, 4, "s%[1]dr%[2]d", "router%d", 0, "", func(t *testing.T) shape {
			return partitioned(t, shard.New, 2, seed, fronts)
		}},
	} {
		t.Run(fmt.Sprintf("S=%d,K=%d,N=%d%s", tc.s, tc.k, tc.n, tc.via), func(t *testing.T) {
			sh := tc.build(t)
			if len(sh.hosts) != tc.s || len(sh.replicas[0]) != tc.k || len(sh.hosts[0]) != tc.n {
				t.Fatalf("built %d×%d×%d", len(sh.hosts), len(sh.replicas[0]), len(sh.hosts[0]))
			}
			probe := sh.network.AddNode("probe")
			probeMesh, err := msgnet.NewMesh(transport.KindTCP, probe, msgnet.DefaultOptions())
			must(t, err)
			for s, meshes := range sh.hosts {
				for i, mesh := range meshes {
					// Node names: r<i>, or s<s>r<i> when groups share a network.
					if got, want := mesh.Node().Name(), fmt.Sprintf(tc.hostName, s, i); got != want {
						t.Errorf("shard %d host %d is node %q, want %q", s, i, got, want)
					}
					// Ports: instance k listens on 1000+10k and 2000+10k —
					// and nothing listens one instance further.
					sh.network.Connect(probe, mesh.Node())
					for k := 0; k <= tc.k; k++ {
						for _, port := range []int{1000 + 10*k, 2000 + 10*k} {
							listening := dials(sh.loop, probeMesh, mesh.Node(), port)
							if listening != (k < tc.k) {
								t.Errorf("%s port %d: listening=%v with %d instances", mesh.Node().Name(), port, listening, tc.k)
							}
						}
					}
				}
				// Keyring seeds: run seed + 7919·(group index) + 1, where a
				// COP instance's group index is k and a shard's is s.
				for k, reps := range sh.replicas[s] {
					group := k + s
					want := auth.GenerateKeyrings(tc.n, uint64(seed+7919*group+1))
					for i, rep := range reps {
						peer, msg := (i+1)%tc.n, []byte("identity")
						if !bytes.Equal(pbft.KeyringOf(rep).MAC(peer, msg), want[i].MAC(peer, msg)) {
							t.Errorf("shard %d instance %d replica %d: keyring not derived from seed+7919·%d+1", s, k, i, group)
						}
					}
				}
			}
			// Front-ends: named client<100+f> / router<f>, with one client per
			// group whose id is 100 + front-end + 1024·group.
			for f, fe := range sh.fronts {
				name := fmt.Sprintf(tc.frontName, tc.frontBase+f)
				if sh.network.Node(name) == nil {
					t.Errorf("front-end %d: no node %q", f, name)
				}
				if len(fe.Clients) != tc.s*tc.k {
					t.Fatalf("front-end %d holds %d clients, want %d", f, len(fe.Clients), tc.s*tc.k)
				}
				for g, cl := range fe.Clients {
					if want := uint32(100 + f + 1024*g); cl.ID() != want {
						t.Errorf("front-end %d client %d has id %d, want %d", f, g, cl.ID(), want)
					}
				}
			}
		})
	}
}

// partitioned builds and starts a deployment of groups PBFT groups
// through a shard constructor, with the given number of routers.
func partitioned(t *testing.T, build func(transport.Kind, shard.Config, model.Params, int64) (*shard.Deployment, error), groups int, seed int64, fronts int) shape {
	d, err := build(transport.KindTCP, shard.Config{Shards: groups, PBFT: pbft.DefaultConfig()}, model.Default(), seed)
	must(t, err)
	must(t, d.Start())
	sh := shape{loop: d.Loop, network: d.Network}
	if d.Clusters[0].Hosts == d.Clusters[groups-1].Hosts {
		// Co-located: one host set whose pillars carry the groups.
		sh.hosts = [][]*msgnet.Mesh{d.Clusters[0].Meshes}
		sh.replicas = [][][]*pbft.Replica{nil}
		for _, c := range d.Clusters {
			sh.replicas[0] = append(sh.replicas[0], c.Replicas)
		}
	} else {
		for _, c := range d.Clusters {
			sh.hosts = append(sh.hosts, c.Meshes)
			sh.replicas = append(sh.replicas, [][]*pbft.Replica{c.Replicas})
		}
	}
	for i := 0; i < fronts; i++ {
		r, err := d.AddRouter()
		must(t, err)
		sh.fronts = append(sh.fronts, r.FrontEnd)
	}
	return sh
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// dials reports whether a connection to node:port is accepted.
func dials(loop *sim.Loop, from *msgnet.Mesh, node *fabric.Node, port int) bool {
	ok := false
	loop.Post(func() {
		from.Dial(node, port, func(p *msgnet.Peer, err error) { ok = err == nil })
	})
	loop.Run()
	return ok
}
