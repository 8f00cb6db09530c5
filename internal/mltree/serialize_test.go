package mltree

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestTreeJSONRoundTrip(t *testing.T) {
	d := nominalDataset(400, 21)
	orig := NewJ48().Fit(d).(*Tree)
	data, err := MarshalTree(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != orig.Size() || back.Depth() != orig.Depth() {
		t.Errorf("shape changed: %v vs %v", back, orig)
	}
	for i := range d.Instances {
		vals := d.Instances[i].Vals
		if back.Classify(vals) != orig.Classify(vals) {
			t.Fatalf("prediction differs after round-trip at instance %d", i)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalTree([]byte("{")); err == nil {
		t.Error("no error for truncated JSON")
	}
	if _, err := UnmarshalTree([]byte("{}")); err == nil {
		t.Error("no error for rootless tree")
	}
}

// Property: any trained tree predicts identically after a JSON
// round-trip, for arbitrary query points.
func TestPropertySerializationPreservesPredictions(t *testing.T) {
	d := nominalDataset(300, 23)
	orig := NewJ48().Fit(d).(*Tree)
	data, _ := MarshalTree(orig)
	back, _ := UnmarshalTree(data)
	f := func(c, s uint8, size float64) bool {
		vals := []float64{float64(c % 3), float64(s % 2), math.Mod(math.Abs(size), 10)}
		return orig.Classify(vals) == back.Classify(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := nominalDataset(120, 24)
	// Add a missing value to exercise the empty-cell path.
	d.Instances[0].Vals[2] = Missing
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, d.Attrs, d.Classes)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("len=%d, want %d", back.Len(), d.Len())
	}
	for i := range d.Instances {
		if back.Instances[i].Class != d.Instances[i].Class {
			t.Fatalf("class differs at %d", i)
		}
		for a := range d.Attrs {
			o, b := d.Instances[i].Vals[a], back.Instances[i].Vals[a]
			if IsMissing(o) != IsMissing(b) {
				t.Fatalf("missingness differs at %d/%d", i, a)
			}
			if !IsMissing(o) && math.Abs(o-b) > 1e-9 {
				t.Fatalf("value differs at %d/%d: %v vs %v", i, a, o, b)
			}
		}
	}
	// The reloaded data trains to the same CV accuracy.
	c1 := CrossValidate(NewJ48(), d, 5, 1)
	c2 := CrossValidate(NewJ48(), back, 5, 1)
	if math.Abs(c1.Accuracy()-c2.Accuracy()) > 1e-9 {
		t.Errorf("accuracy differs: %v vs %v", c1.Accuracy(), c2.Accuracy())
	}
}

func TestCSVRejectsBadInput(t *testing.T) {
	d := nominalDataset(5, 25)
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,2\n"), d.Attrs, d.Classes); err == nil {
		t.Error("no error for wrong column count")
	}
	var buf bytes.Buffer
	d.WriteCSV(&buf)
	mangled := bytes.Replace(buf.Bytes(), []byte("red"), []byte("mauve"), 1)
	if _, err := ReadCSV(bytes.NewBuffer(mangled), d.Attrs, d.Classes); err == nil {
		t.Error("no error for unknown category")
	}
}
