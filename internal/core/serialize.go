package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// modelFile is the on-disk representation of a trained model: the
// hyperparameters plus every parameter tensor in Params() order (which is
// deterministic for a given Config).
type modelFile struct {
	Version int
	Cfg     Config
	Shapes  [][2]int
	Data    [][]float64
}

const modelFileVersion = 1

// Caps on a model file's dimensions and depths. They keep validate's size
// arithmetic far from overflow; real models are orders of magnitude smaller.
const (
	maxFileDim    = 1 << 16
	maxFileLayers = 1 << 10
)

// validate checks what NewModel assumes of a Config read from a file, and
// that the file holds at least the weights its config implies, so a crafted
// header cannot make NewModel allocate far more than the file itself holds.
// Load checks each tensor against the rebuilt architecture.
func (f *modelFile) validate() error {
	c := f.Cfg
	if c.EmbedDim < 1 || c.EmbedDim > maxFileDim || c.DecoderHidden < 1 || c.DecoderHidden > maxFileDim {
		return fmt.Errorf("core: model file dimensions EmbedDim=%d DecoderHidden=%d outside [1, %d]", c.EmbedDim, c.DecoderHidden, maxFileDim)
	}
	if c.Heads < 1 || c.EmbedDim%c.Heads != 0 {
		return fmt.Errorf("core: model file has %d heads for embedding dimension %d", c.Heads, c.EmbedDim)
	}
	for _, l := range []int{c.LayersR1, c.LayersR2, c.LayersR3} {
		if l < 0 || l > maxFileLayers {
			return fmt.Errorf("core: model file layer count %d outside [0, %d]", l, maxFileLayers)
		}
	}
	if len(f.Shapes) != len(f.Data) {
		return fmt.Errorf("core: model file has %d shapes for %d tensors", len(f.Shapes), len(f.Data))
	}
	// Every GAT layer holds at least a d x d matrix, the decoder a 2d x
	// hidden one.
	layers := c.LayersR1 + 2*c.LayersR2 + 2*c.LayersR3
	need := layers*c.EmbedDim*c.EmbedDim + 2*c.EmbedDim*c.DecoderHidden
	have := 0
	for _, d := range f.Data {
		have += len(d)
	}
	if have < need {
		return fmt.Errorf("core: model file holds %d weights, its config needs at least %d", have, need)
	}
	return nil
}

// Save writes the model (hyperparameters + weights) to w with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	f := modelFile{Version: modelFileVersion, Cfg: m.Cfg}
	for _, p := range m.params {
		f.Shapes = append(f.Shapes, [2]int{p.Val.Rows, p.Val.Cols})
		f.Data = append(f.Data, append([]float64(nil), p.Val.Data...))
	}
	return gob.NewEncoder(w).Encode(&f)
}

// Load reads a model saved by Save. The file is validated before anything is
// built from it; the architecture is then rebuilt from the stored Config and
// every tensor must match it in shape and length. The result is ready for
// inference or further training.
func Load(r io.Reader) (*Model, error) {
	var f modelFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if f.Version != modelFileVersion {
		return nil, fmt.Errorf("core: unsupported model file version %d", f.Version)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	m := NewModel(f.Cfg)
	if len(f.Data) != len(m.params) {
		return nil, fmt.Errorf("core: model file has %d tensors, architecture needs %d", len(f.Data), len(m.params))
	}
	for i, p := range m.params {
		if f.Shapes[i] != [2]int{p.Val.Rows, p.Val.Cols} || len(f.Data[i]) != len(p.Val.Data) {
			return nil, fmt.Errorf("core: tensor %d has shape %v and %d values, want %dx%d", i, f.Shapes[i], len(f.Data[i]), p.Val.Rows, p.Val.Cols)
		}
		copy(p.Val.Data, f.Data[i])
	}
	m.InvalidateWeightCaches()
	return m, nil
}

// SaveFile writes the model to a file path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from a file path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
