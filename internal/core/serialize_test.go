package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"path/filepath"
	"testing"

	"sate/internal/baselines"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p := buildScenario(t, 0, 60, 61)
	m := NewModel(DefaultConfig())
	a1, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m2.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.Throughput()-a2.Throughput()) > 1e-12 {
		t.Errorf("loaded model differs: %v vs %v", a1.Throughput(), a2.Throughput())
	}
	for fi := range a1.X {
		for pi := range a1.X[fi] {
			if math.Abs(a1.X[fi][pi]-a2.X[fi][pi]) > 1e-12 {
				t.Fatalf("allocation differs at [%d][%d]", fi, pi)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := NewModel(DefaultConfig())
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumParams() != m.NumParams() {
		t.Errorf("params %d vs %d", m2.NumParams(), m.NumParams())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("expected decode error")
	}
}

func TestSaveLoadPreservesTraining(t *testing.T) {
	// A trained model must survive the round trip with its learned weights.
	p := buildScenario(t, 0, 60, 63)
	ref, err := (baselines.LPExact{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(DefaultConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	if _, err := Train(m, []*Sample{NewSample(p, ref)}, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := m.Solve(p)
	a2, _ := m2.Solve(p)
	if math.Abs(a1.Throughput()-a2.Throughput()) > 1e-9 {
		t.Error("trained weights not preserved")
	}
}

// TestLoadRejectsCraftedFiles feeds Load model files that decode but lie
// about their contents: each must come back as an error, never a panic and
// never a model with weights silently zero-filled.
func TestLoadRejectsCraftedFiles(t *testing.T) {
	valid := func() modelFile {
		m := NewModel(DefaultConfig())
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var f modelFile
		if err := gob.NewDecoder(&buf).Decode(&f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	cases := []struct {
		name  string
		craft func(f *modelFile)
	}{
		{"zero heads", func(f *modelFile) { f.Cfg.Heads = 0 }},
		{"heads do not divide the dimension", func(f *modelFile) { f.Cfg.Heads = 3 }},
		{"negative heads", func(f *modelFile) { f.Cfg.Heads = -2 }},
		{"zero dimension", func(f *modelFile) { f.Cfg.EmbedDim = 0 }},
		{"huge dimension", func(f *modelFile) { f.Cfg.EmbedDim, f.Cfg.Heads = 1<<20, 1 }},
		{"zero decoder width", func(f *modelFile) { f.Cfg.DecoderHidden = 0 }},
		{"negative layers", func(f *modelFile) { f.Cfg.LayersR2 = -1 }},
		{"config larger than the weights", func(f *modelFile) { f.Cfg.LayersR1 = 1000 }},
		{"shapes shorter than data", func(f *modelFile) { f.Shapes = f.Shapes[:len(f.Shapes)-1] }},
		{"data shorter than shapes", func(f *modelFile) { f.Data = f.Data[:len(f.Data)-1] }},
		{"tensor shorter than its shape", func(f *modelFile) { f.Data[3] = f.Data[3][:1] }},
		{"tensor longer than its shape", func(f *modelFile) { f.Data[3] = append(f.Data[3], 1) }},
		{"wrong shape", func(f *modelFile) { f.Shapes[0] = [2]int{f.Shapes[0][1], f.Shapes[0][0]} }},
		{"one tensor too few", func(f *modelFile) { f.Shapes, f.Data = f.Shapes[1:], f.Data[1:] }},
		{"wrong version", func(f *modelFile) { f.Version = 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := valid()
			c.craft(&f)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
				t.Fatal(err)
			}
			if m, err := Load(&buf); err == nil {
				t.Fatalf("crafted file loaded (%d params)", m.NumParams())
			}
		})
	}
	// The committed benchmark model still loads.
	if _, err := LoadFile(filepath.Join("..", "..", "benchmark", "model.gob")); err != nil {
		t.Fatalf("benchmark model: %v", err)
	}
}

// FuzzLoad: no byte string makes Load panic. The seed corpus under
// testdata/fuzz/FuzzLoad holds a small valid model and truncations of it.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err == nil && m.NumParams() == 0 {
			t.Fatal("loaded a model with no parameters")
		}
	})
}
