package workload

import (
	"math/rand"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/imoc"
	"ofc/internal/kvstore"
	"ofc/internal/objstore"
	"ofc/internal/simnet"
)

// Suite builds runnable faas.Functions from Specs and keeps the object
// registry that maps keys to their true content features (standing in
// for the actual bytes of images/audio/video the paper's functions
// decode).
type Suite struct {
	features map[string]map[string]float64
	outSeq   int64
}

// NewSuite returns an empty suite.
func NewSuite() *Suite {
	return &Suite{features: make(map[string]map[string]float64)}
}

// RegisterObject records the true features of an object.
func (su *Suite) RegisterObject(key string, features map[string]float64) {
	su.features[key] = features
}

// forget drops keys from the registry: a pipeline's intermediates, once
// the run that wrote and read them is over.
func (su *Suite) forget(keys []string) {
	for _, k := range keys {
		delete(su.features, k)
	}
}

// FeaturesOf returns the true features of key; for unknown keys it
// falls back to size-only features.
func (su *Suite) FeaturesOf(key string, size int64) map[string]float64 {
	if f, ok := su.features[key]; ok {
		return f
	}
	return map[string]float64{"size": float64(size)}
}

// Build turns a spec into a registered-ready function for a tenant.
// booked of 0 uses the spec default.
func (su *Suite) Build(spec *Spec, tenant string, booked int64) *faas.Function {
	if booked <= 0 {
		booked = spec.Booked
	}
	fn := &faas.Function{
		Name:         spec.Name,
		Tenant:       tenant,
		MemoryBooked: booked,
		InputType:    spec.InputType,
		ArgNames:     spec.ArgNames,
	}
	outPrefix := "out/" + tenant + "/" + spec.Name + "/"
	var kb []byte // key buffer
	fn.Body = func(ctx *faas.Ctx) error {
		key := ctx.InputKeys()[0]
		blob, err := ctx.Extract(key)
		if err != nil {
			return err
		}
		f := su.FeaturesOf(key, blob.Size)
		args := ctx.Args()
		su.outSeq++
		seq := su.outSeq
		if err := ctx.Transform(spec.Time(f, args), spec.PeakMemRun(key, f, args, seq)); err != nil {
			return err
		}
		outKey := keyOf(&kb, int(seq), "", outPrefix)
		return ctx.Load(outKey, faas.Blob{Size: spec.OutSize(f, args)}, faas.KindFinal)
	}
	return fn
}

// NewRequest assembles an invocation request for a prepared input.
func NewRequest(fn *faas.Function, spec *Spec, in InputMeta, args map[string]float64) *faas.Request {
	return &faas.Request{
		Function:      fn,
		Args:          args,
		InputKeys:     []string{in.Key},
		InputFeatures: in.Features,
	}
}

// MaxMem returns the worst-case memory of a spec over a pool (the
// "advanced" tenant profile books this; "normal" books 1.7× it, §7.2.2).
func (s *Spec) MaxMem(pool *InputPool, rng *rand.Rand) int64 {
	var max int64
	for _, in := range pool.Inputs {
		for i := 0; i < 8; i++ {
			args := s.GenArgs(rng)
			if m := s.PeakMem(in.Key, in.Features, args); m > max {
				max = m
			}
		}
	}
	return max
}

// TenantProfile is the §7.2.2 memory-booking behaviour.
type TenantProfile int

const (
	// ProfileNormal books 1.7× the maximum used memory.
	ProfileNormal TenantProfile = iota
	// ProfileNaive books the platform maximum (2 GB).
	ProfileNaive
	// ProfileAdvanced books exactly the maximum used memory.
	ProfileAdvanced
)

// String names the profile.
func (p TenantProfile) String() string {
	switch p {
	case ProfileNaive:
		return "naive"
	case ProfileAdvanced:
		return "advanced"
	default:
		return "normal"
	}
}

// BookedMem computes the booked memory for a profile given the
// function's true maximum usage.
func BookedMem(profile TenantProfile, maxUsed, platformMax int64) int64 {
	switch profile {
	case ProfileNaive:
		return platformMax
	case ProfileAdvanced:
		return maxUsed
	default:
		b := int64(float64(maxUsed) * 1.7)
		if b > platformMax {
			b = platformMax
		}
		return b
	}
}

// TrainingSamples evaluates the spec laws over a pool to produce an
// offline training set (the repository's machine-learning folder).
// The feature vectors follow fn's schema ordering.
func TrainingSamples(spec *Spec, fn *faas.Function, pool *InputPool, n int, rng *rand.Rand, rsds objstore.Profile) []core.Sample {
	schema := core.NewFeatureSchema(fn)
	out := make([]core.Sample, 0, n)
	for i := 0; i < n; i++ {
		in := pool.Inputs[rng.Intn(len(pool.Inputs))]
		args := spec.GenArgs(rng)
		merged := make(map[string]float64, len(in.Features)+len(args))
		for k, v := range in.Features {
			merged[k] = v
		}
		for k, v := range args {
			merged[k] = v
		}
		vals := make([]float64, 0, len(schema.Names()))
		for _, name := range schema.Names() {
			if v, ok := merged[name]; ok {
				vals = append(vals, v)
			} else {
				vals = append(vals, missing())
			}
		}
		outSize := spec.OutSize(in.Features, args)
		out = append(out, core.Sample{
			Vals:         vals,
			PeakMem:      spec.PeakMemRun(in.Key, in.Features, args, int64(i)),
			Extract:      rsds.ReadTime(1, in.Size),
			Transform:    spec.Time(in.Features, args),
			Load:         rsds.WriteTime(1, outSize),
			BenefitKnown: true,
		})
	}
	return out
}

func missing() float64 {
	var nan float64
	nan = 0
	nan /= nan
	return nan
}

// RSDSWriter stages inputs into the RSDS with feature sidecars.
type RSDSWriter struct {
	Suite *Suite
	Store *objstore.Store
	Node  simnet.NodeID
}

// WriteObject implements ObjectWriter.
func (w RSDSWriter) WriteObject(key string, blob kvstore.Blob, features map[string]float64) {
	w.Store.Put(w.Node, key, blob, nil, false)
	w.Store.SetFeatures(key, features)
	w.Suite.RegisterObject(key, features)
}

// IMOCWriter stages inputs into the Redis-like cache (the OWK-Redis
// baseline keeps all data there).
type IMOCWriter struct {
	Suite *Suite
	Cache *imoc.Cache
	Node  simnet.NodeID
}

// WriteObject implements ObjectWriter.
func (w IMOCWriter) WriteObject(key string, blob kvstore.Blob, features map[string]float64) {
	w.Cache.Set(w.Node, key, blob)
	w.Suite.RegisterObject(key, features)
}

// blobType aliases the kvstore payload for internal helpers.
type blobType = kvstore.Blob
