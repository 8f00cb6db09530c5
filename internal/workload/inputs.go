package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ofc/internal/kvstore"
)

// InputMeta describes one prepared input object.
type InputMeta struct {
	Key      string
	Size     int64
	Features map[string]float64
}

// genImage derives image features consistent with a byte size: JPEG at
// roughly 0.8 byte/pixel with a 4:3 aspect ratio, 1 or 3 channels.
func genImage(rng *rand.Rand, size int64) map[string]float64 {
	channels := 3.0
	if rng.Intn(6) == 0 {
		channels = 1
	}
	pixels := float64(size) / (0.8 * channels / 3)
	// width/height with a 4:3 ratio: pixels = w*h = w*(3w/4).
	w := int(math.Sqrt(pixels * 4 / 3))
	if w < 16 {
		w = 16
	}
	width := float64(w)
	height := float64(w) * 3 / 4
	return map[string]float64{
		"size": float64(size), "width": width, "height": height, "channels": channels,
	}
}

// genAudio derives audio features: bitrate in {64,128,192,256} kb/s,
// duration from size.
func genAudio(rng *rand.Rand, size int64) map[string]float64 {
	bitrates := []float64{64, 128, 192, 256}
	br := bitrates[rng.Intn(len(bitrates))]
	duration := float64(size) * 8 / (br * 1000)
	channels := 2.0
	if rng.Intn(4) == 0 {
		channels = 1
	}
	return map[string]float64{
		"size": float64(size), "duration": duration, "bitrate": br, "channels": channels,
	}
}

// genVideo derives video features: resolution class, fps, duration
// from size at the implied bitrate.
func genVideo(rng *rand.Rand, size int64) map[string]float64 {
	res := [][2]float64{{640, 360}, {1280, 720}, {1920, 1080}}[rng.Intn(3)]
	fps := []float64{24, 30, 60}[rng.Intn(3)]
	bitrate := res[0] * res[1] * fps * 0.15 // bits/s (720p30 ≈ 4 Mb/s)
	duration := float64(size) * 8 / bitrate
	return map[string]float64{
		"size": float64(size), "width": res[0], "height": res[1], "fps": fps, "duration": duration,
	}
}

// genText derives text features.
func genText(rng *rand.Rand, size int64) map[string]float64 {
	lines := float64(size) / float64(40+rng.Intn(40))
	return map[string]float64{"size": float64(size), "lines": lines}
}

// GenFeatures builds features of the given input type and byte size.
func GenFeatures(rng *rand.Rand, inputType string, size int64) map[string]float64 {
	switch inputType {
	case "image":
		return genImage(rng, size)
	case "audio":
		return genAudio(rng, size)
	case "video":
		return genVideo(rng, size)
	case "text":
		return genText(rng, size)
	default:
		return map[string]float64{"size": float64(size)}
	}
}

// InputPool is a finite set of prepared input objects for one
// function, mirroring FaaSLoad's dataset preparation.
type InputPool struct {
	Inputs []InputMeta
	rng    *rand.Rand
}

// NewInputPool generates count distinct inputs per requested size
// (sizes jittered ±20% so byte size alone cannot predict memory).
func NewInputPool(rng *rand.Rand, inputType, keyPrefix string, sizes []int64, perSize int) *InputPool {
	pool := &InputPool{rng: rand.New(rand.NewSource(rng.Int63()))}
	for _, s := range sizes {
		for i := 0; i < perSize; i++ {
			jitter := 1 + (rng.Float64()-0.5)*0.4
			size := int64(float64(s) * jitter)
			if size < 128 {
				size = 128
			}
			key := fmt.Sprintf("%s/%d-%d", keyPrefix, s, i)
			pool.Inputs = append(pool.Inputs, InputMeta{
				Key: key, Size: size, Features: GenFeatures(rng, inputType, size),
			})
		}
	}
	return pool
}

// Pick returns a uniformly random input from the pool.
func (p *InputPool) Pick() InputMeta {
	return p.Inputs[p.rng.Intn(len(p.Inputs))]
}

// ObjectWriter abstracts where prepared inputs are staged: the RSDS
// (OWK-Swift and OFC runs) or the IMOC (OWK-Redis runs).
type ObjectWriter interface {
	WriteObject(key string, blob kvstore.Blob, features map[string]float64)
}

// Stage writes every input of the pool through w.
func (p *InputPool) Stage(w ObjectWriter) {
	for _, in := range p.Inputs {
		w.WriteObject(in.Key, kvstore.Synthetic(in.Size), in.Features)
	}
}
