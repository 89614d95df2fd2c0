package main

import (
	"context"

	"asyncft/internal/network"
	"asyncft/internal/obs"
	rt "asyncft/internal/runtime"
)

// simCluster is n parties on the in-process simulated network with the
// default seeded reordering and no injected delay.
type simCluster struct {
	n, t      int
	router    *network.Router
	nodes     []*rt.Node
	envs      []*rt.Env
	regs      []*obs.Registry // traced only
	helperCtx context.Context
	cancel    context.CancelFunc
}

func newSimCluster(n, t int, seed int64, c *counters, traced bool) *simCluster {
	sc := &simCluster{n: n, t: t, router: network.NewRouter(n, network.NewRandomReorder(seed, 0.3, 6))}
	sc.helperCtx, sc.cancel = context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		node := rt.NewNode(i, n, t)
		sc.router.Register(i, wrapDispatch(node.Dispatch, c, traced))
		if traced {
			reg := obs.NewRegistry()
			node.Instrument(reg)
			sc.regs = append(sc.regs, reg)
		}
		sc.nodes = append(sc.nodes, node)
		sc.envs = append(sc.envs, rt.NewEnv(i, n, t, node, wrapSender(sc.router, c, traced), seed*7919+int64(i)))
	}
	return sc
}

func (sc *simCluster) envMap() map[int]*rt.Env {
	m := make(map[int]*rt.Env, sc.n)
	for i, e := range sc.envs {
		m[i] = e
	}
	return m
}

func (sc *simCluster) close() {
	sc.cancel()
	for _, nd := range sc.nodes {
		nd.Close()
	}
	sc.router.Close()
}
