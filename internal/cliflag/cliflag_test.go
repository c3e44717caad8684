package cliflag

import (
	"math"
	"path/filepath"
	"testing"
)

func TestValidateSpillConfig(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name      string
		budget    int64
		dir       string
		budgetSet bool
		dirSet    bool
		wantErr   bool
	}{
		{"all defaults", 0, "", false, false, false},
		{"valid budget and dir", 1 << 20, dir, true, true, false},
		{"budget without dir", 1 << 20, "", true, false, false},
		{"zero budget set", 0, "", true, false, true},
		{"negative budget set", -5, "", true, false, true},
		{"empty dir set", 0, "", false, true, true},
		{"dir without budget", 0, dir, false, true, true},
		{"dir does not exist", 1 << 20, filepath.Join(dir, "missing"), true, true, true},
	}
	for _, c := range cases {
		err := ValidateSpillConfig(c.budget, c.dir, c.budgetSet, c.dirSet)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: ValidateSpillConfig(%d, %q, %v, %v) err = %v, wantErr %v",
				c.name, c.budget, c.dir, c.budgetSet, c.dirSet, err, c.wantErr)
		}
	}
}

func TestValidateWorkers(t *testing.T) {
	if err := ValidateWorkers(0); err == nil {
		t.Error("ValidateWorkers(0) accepted")
	}
	if err := ValidateWorkers(-2); err == nil {
		t.Error("ValidateWorkers(-2) accepted")
	}
	if err := ValidateWorkers(1); err != nil {
		t.Errorf("ValidateWorkers(1): %v", err)
	}
}

func TestValidateScale(t *testing.T) {
	cases := []struct {
		scale   float64
		wantErr bool
	}{
		{0.02, false},
		{0.0001, false},
		{1, false},
		{0, true},
		{-3, true},
		{5, true},
		{1.0000001, true},
		{math.NaN(), true},
		{math.Inf(1), true},
	}
	for _, c := range cases {
		if err := ValidateScale(c.scale); (err != nil) != c.wantErr {
			t.Errorf("ValidateScale(%v) err = %v, wantErr %v", c.scale, err, c.wantErr)
		}
	}
}
