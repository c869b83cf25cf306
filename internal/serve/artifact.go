// Package serve turns a trained detector into a network service: a
// self-contained model artifact format (weights + architecture spec +
// fitted preprocessing, one file), an HTTP/JSON scoring server whose
// request path funnels into a dynamic micro-batcher feeding sharded
// detector replicas, Prometheus-style metrics, graceful drain, and atomic
// hot-reload of a new artifact with no dropped requests.
package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"

	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/store"
	"repro/internal/wire"
)

// artifactFormat is the .plcn layout this build writes and reads: a
// wire.FrameArtifact header holding artifactMeta, then Artifact.tensors.
const artifactFormat = 2

// artifactV1Magic opened the format-1 files (a gob payload). They are
// recognized only so the rejection can name their format.
const artifactV1Magic = "PELICANv1\n"

// artifactMeta is the JSON payload of an artifact's first frame.
type artifactMeta struct {
	Format  int                `json:"format"`
	Model   string             `json:"model"`
	Block   models.BlockConfig `json:"block"`
	Schema  data.Schema        `json:"schema"`
	Tensors int                `json:"tensors"`
}

// Artifact is a self-contained trained detector: everything needed to
// build a ready-to-score infer.Detector — registered model name,
// block configuration, dataset schema (which fully determines the one-hot
// encoder), fitted scaler moments, and network weights.
type Artifact struct {
	ModelName string
	Block     models.BlockConfig
	Schema    data.Schema

	// tensors is the artifact's one copy of its numbers, in file order:
	// scaler mean, scaler std, then the nn.Network.State. scaler aliases
	// the first two.
	tensors []nn.NamedTensor
	scaler  *data.Scaler
	version string

	// Compiled float32 inference plan, lowered from the tensors once on
	// first use and shared by every replica.
	planOnce sync.Once
	plan     *infer.Plan
	planErr  error
}

// NewArtifact captures a trained network and its fitted pipeline into an
// artifact. modelName must be a registered models.Spec name; the artifact
// rebuilds the architecture from it at load time.
func NewArtifact(modelName string, block models.BlockConfig, schema data.Schema, pipe *data.Pipeline, net *nn.Network) (*Artifact, error) {
	a, err := newArtifact(modelName, block, schema, append([]nn.NamedTensor{
		{Name: "scaler_mean", Shape: []int{len(pipe.Scaler.Mean)}, Data: append([]float64(nil), pipe.Scaler.Mean...)},
		{Name: "scaler_std", Shape: []int{len(pipe.Scaler.Std)}, Data: append([]float64(nil), pipe.Scaler.Std...)},
	}, net.State()...))
	if err != nil {
		return nil, err
	}
	b, err := a.encode()
	if err != nil {
		return nil, fmt.Errorf("serve: encode artifact: %w", err)
	}
	a.version = store.Version(b)
	return a, nil
}

// newArtifact assembles an artifact, checking what NewNetwork and the
// scoring pipeline rely on: a registered model, a consistent schema, and
// scaler moments (the first two tensors) for every encoded column. The
// caller sets the version.
func newArtifact(modelName string, block models.BlockConfig, schema data.Schema, tensors []nn.NamedTensor) (*Artifact, error) {
	if _, err := models.Lookup(modelName); err != nil {
		return nil, fmt.Errorf("serve: artifact references unknown model: %w", err)
	}
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid schema: %w", err)
	}
	if w := schema.EncodedWidth(); len(tensors) < 2 || len(tensors[0].Data) != w || len(tensors[1].Data) != w {
		return nil, fmt.Errorf("serve: scaler moments do not cover the schema's %d encoded columns", w)
	}
	return &Artifact{ModelName: modelName, Block: block, Schema: schema, tensors: tensors,
		scaler: &data.Scaler{Mean: tensors[0].Data, Std: tensors[1].Data}}, nil
}

// Version returns the artifact's content-addressed version id: the first
// 12 hex digits of the SHA-256 of the serialized file. Two artifacts with
// the same version are byte-identical.
func (a *Artifact) Version() string { return a.version }

// Features returns the encoded input width the model consumes.
func (a *Artifact) Features() int { return a.Schema.EncodedWidth() }

// Classes returns the number of output classes.
func (a *Artifact) Classes() int { return a.Schema.NumClasses() }

// Bytes returns the artifact's file bytes, whose SHA-256 defines
// Version(). The encoding is a pure function of the content, so the bytes
// are regenerated on each call instead of being held beside the weights.
func (a *Artifact) Bytes() []byte {
	b, err := a.encode()
	if err != nil {
		// NewArtifact or LoadArtifact already encoded this same content.
		panic(fmt.Sprintf("serve: re-encode artifact %s: %v", a.version, err))
	}
	return b
}

func (a *Artifact) encode() ([]byte, error) {
	var buf bytes.Buffer
	err := wire.WriteFile(&buf, wire.FrameArtifact, artifactMeta{artifactFormat, a.ModelName, a.Block, a.Schema, len(a.tensors)}, a.tensors)
	return buf.Bytes(), err
}

// SaveArtifactFile writes the artifact to path through store.WriteAtomic,
// so a crash mid-save never leaves a torn file under path.
func SaveArtifactFile(path string, a *Artifact) error {
	return store.WriteAtomic(path, a.Bytes())
}

// LoadArtifact reads and validates an artifact: every frame's CRC, the
// format, the declared tensor count, the registered model name, and the
// schema's consistency with the scaler all have to check out before any
// network is built. The weights' shapes are checked when one is. The file
// is read in one streamed pass: frames are parsed as they arrive and every
// byte also feeds the SHA-256 behind Version(), so the whole file is never
// held. A failure of r itself is reported as a read error wrapping its
// cause, not as a corrupt artifact.
func LoadArtifact(r io.Reader) (*Artifact, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(artifactV1Magic)); string(head) == artifactV1Magic {
		return nil, errors.New("serve: artifact is format 1 (gob, PELICANv1), this build reads format 2 only: re-export it with pelican-train")
	}
	sum := sha256.New()
	var m artifactMeta
	tensors, err := wire.ReadFile(io.TeeReader(br, sum), wire.FrameArtifact, &m)
	if err != nil && !wire.IsProtocolError(err) {
		return nil, fmt.Errorf("serve: read artifact: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: not a valid model artifact (corrupt, truncated or foreign): %w", err)
	}
	if m.Format != artifactFormat {
		return nil, fmt.Errorf("serve: artifact format %d, this build reads %d", m.Format, artifactFormat)
	}
	if len(tensors) != m.Tensors {
		return nil, fmt.Errorf("serve: artifact declares %d tensors, holds %d (truncated)", m.Tensors, len(tensors))
	}
	a, err := newArtifact(m.Model, m.Block, m.Schema, tensors)
	if err != nil {
		return nil, err
	}
	// ReadFile returns only at a clean end of input, so every byte is hashed.
	a.version = store.VersionOf([sha256.Size]byte(sum.Sum(nil)))
	return a, nil
}

// LoadArtifactFile reads an artifact from path.
func LoadArtifactFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := LoadArtifact(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// NewNetwork reconstructs the artifact's trained network with the given
// loss and optimizer, alongside its fitted preprocessing pipeline — the
// warm-start entry point for online retraining: the returned network's
// parameters are the artifact's weights, so nn.Network.PartialFit resumes
// training from the deployed model instead of a fresh initialization.
// The layers are built without initialising their weights (a nil weight
// rng): SetState checks and overwrites every parameter and BatchNorm
// statistic, so anything drawn would be thrown away. Dropout masks draw
// from a fixed-seed stream, so a retraining run is deterministic given
// the caller's FitConfig RNG.
func (a *Artifact) NewNetwork(loss nn.Loss, opt nn.Optimizer) (*nn.Network, *data.Pipeline, error) {
	spec, err := models.Lookup(a.ModelName)
	if err != nil {
		return nil, nil, err
	}
	stack := spec.Build(nil, rand.New(rand.NewSource(1)), a.Block, a.Features(), a.Classes())
	net := nn.NewNetwork(stack, loss, opt)
	if err := net.SetState(a.tensors[2:]); err != nil {
		return nil, nil, fmt.Errorf("serve: restore %s weights: %w", a.ModelName, err)
	}
	return net, &data.Pipeline{Enc: data.NewEncoder(a.Schema), Scaler: a.scaler}, nil
}

// Plan returns the artifact's compiled float32 inference plan, lowering
// the float64 weights through infer.Compile on first call. The plan is
// cached and shared: replicas each run it through their own engine, and a
// hot-reload path that pre-validates an artifact (adapt's retrain loop)
// warms the same cache the serving side reads.
func (a *Artifact) Plan() (*infer.Plan, error) {
	a.planOnce.Do(func() {
		net, _, err := a.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
		if err != nil {
			a.planErr = err
			return
		}
		a.plan, a.planErr = infer.Compile(net)
	})
	return a.plan, a.planErr
}

// NewInferDetector builds a scoring replica: the shared compiled float32
// plan plus a private engine arena and lock. Each call returns an
// independent detector, so callers can shard load across several
// replicas; the plan, scaler and schema are shared read-only.
func (a *Artifact) NewInferDetector() (*infer.Detector, error) {
	plan, err := a.Plan()
	if err != nil {
		return nil, fmt.Errorf("serve: lower %s for f32 inference: %w", a.ModelName, err)
	}
	pipe := &data.Pipeline{Enc: data.NewEncoder(a.Schema), Scaler: a.scaler}
	return infer.NewDetector(a.ModelName, pipe, plan), nil
}
