// Package experiments regenerates every table and figure of the
// paper's evaluation (§2.2.3 and §7): each experiment builds the
// deployments it needs (OWK-Swift, OWK-Redis, OFC), drives the
// workloads, and returns the rows/series the paper reports.
package experiments

import (
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/imoc"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/workload"
)

// Mode selects the system under test.
type Mode int

const (
	// ModeSwift is vanilla OWK with all data in the Swift-like RSDS.
	ModeSwift Mode = iota
	// ModeRedis is vanilla OWK with all data in the Redis-like IMOC.
	ModeRedis
	// ModeOFC is the full OFC stack.
	ModeOFC
)

// String names the mode the way Figure 7's legend does.
func (m Mode) String() string {
	switch m {
	case ModeSwift:
		return "OWK-Swift"
	case ModeRedis:
		return "OWK-Redis"
	default:
		return "OFC"
	}
}

// Deployment is one system under test plus its workload suite.
type Deployment struct {
	Mode     Mode
	Env      *sim.Env
	Net      *simnet.Network
	Platform *faas.Platform
	Store    *objstore.Store
	Redis    *imoc.Cache
	Sys      *core.System // non-nil in ModeOFC
	Suite    *workload.Suite
	Writer   workload.ObjectWriter
	Ctrl     simnet.NodeID
	Workers  []simnet.NodeID
}

// DeployConfig sizes a deployment.
type DeployConfig struct {
	Workers      int
	NodeCapacity int64
	Seed         int64
	RSDS         objstore.Profile
	// Tune, when non-nil, adjusts the assembled core options before
	// the OFC system is built (the policy ablation uses it to pick the
	// memctl policies and shorten the agent cadences so eviction fires
	// inside a short run). Ignored by the vanilla modes.
	Tune func(*core.Options)
}

// DefaultDeploy mirrors the paper's testbed: 4 workers, plus the
// controller and storage machines.
func DefaultDeploy() DeployConfig {
	return DeployConfig{Workers: 4, NodeCapacity: 16 << 30, Seed: 1, RSDS: objstore.SwiftProfile()}
}

// deployed, when a test has set it, is shown every deployment before
// the experiment that asked for it: the determinism test attaches a
// tracer and keeps the deployment to snapshot its counters afterwards.
// Experiments deploy from several goroutines (Parallel). Only tests
// write it.
var deployed func(*Deployment)

// NewDeployment builds the system under test.
func NewDeployment(mode Mode, cfg DeployConfig) *Deployment {
	su := workload.NewSuite()
	d := &Deployment{Mode: mode, Suite: su}
	switch mode {
	case ModeOFC:
		opts := core.DefaultOptions()
		opts.Workers = cfg.Workers
		opts.NodeCapacity = cfg.NodeCapacity
		opts.Seed = cfg.Seed
		opts.RSDS = cfg.RSDS
		if cfg.Tune != nil {
			cfg.Tune(&opts)
		}
		sys := core.NewSystem(opts)
		d.Sys = sys
		d.Env = sys.Env
		d.Net = sys.Net
		d.Platform = sys.Platform
		d.Store = sys.RSDS
		d.Ctrl = sys.CtrlNode
		d.Workers = sys.WorkerNodes
		d.Writer = workload.RSDSWriter{Suite: su, Store: sys.RSDS, Node: sys.CtrlNode}
	default:
		env := sim.NewEnv(cfg.Seed)
		net := simnet.New(env)
		ctrl := net.AddNode("controller").ID
		storage := net.AddNode("storage").ID
		store := objstore.New(net, storage, cfg.RSDS)
		p := faas.New(net, ctrl, faas.DefaultConfig())
		var storageBinding faas.Storage
		if mode == ModeRedis {
			redisNode := net.AddNode("redis").ID
			d.Redis = imoc.New(net, redisNode)
			storageBinding = faas.NewIMOCStorage(d.Redis)
			d.Writer = workload.IMOCWriter{Suite: su, Cache: d.Redis, Node: ctrl}
		} else {
			storageBinding = faas.NewRSDSStorage(store)
			d.Writer = workload.RSDSWriter{Suite: su, Store: store, Node: ctrl}
		}
		for i := 0; i < cfg.Workers; i++ {
			w := net.AddNode("worker").ID
			p.AddInvoker(w, cfg.NodeCapacity, storageBinding)
			d.Workers = append(d.Workers, w)
		}
		d.Env = env
		d.Net = net
		d.Platform = p
		d.Store = store
		d.Ctrl = ctrl
	}
	if deployed != nil {
		deployed(d)
	}
	return d
}

// Run executes body as a simulation process, drains background work
// and drives the simulation to completion.
func (d *Deployment) Run(body func()) {
	if d.Sys != nil {
		d.Sys.Run(body)
		return
	}
	d.Env.Go(func() {
		body()
		d.Env.Sleep(5 * time.Second)
		d.Env.Stop()
	})
	d.Env.Run()
}

// Register adds a function (OFC also initializes its model state).
func (d *Deployment) Register(fn *faas.Function) {
	if d.Sys != nil {
		d.Sys.Register(fn)
		return
	}
	d.Platform.Register(fn)
}

// PinTo forces all routing to the given worker node (the Figure 7
// remote-hit scenario); returns a restore function.
func (d *Deployment) PinTo(node simnet.NodeID) func() {
	old := d.Platform.Router
	d.Platform.Router = pinRouter{node: node}
	return func() { d.Platform.Router = old }
}

type pinRouter struct{ node simnet.NodeID }

// Route implements faas.Router.
func (r pinRouter) Route(req *faas.Request, all []*faas.Invoker, warm []*faas.Invoker) *faas.Invoker {
	for _, inv := range all {
		if inv.Node() == r.node {
			return inv
		}
	}
	return nil
}

// Pretrain matures a single-stage function's models from the pool.
func (d *Deployment) Pretrain(spec *workload.Spec, fn *faas.Function, pool *workload.InputPool, n int) {
	if d.Sys == nil {
		return
	}
	rng := d.Env.NewRand()
	samples := workload.TrainingSamples(spec, fn, pool, n, rng, d.Store.Profile())
	d.Sys.Trainer.Pretrain(fn, samples)
}
