package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// hostTimingKey is the JSON key of RunReport.SimCyclesPerSec, the one
// report field that measures the host (simulated cycles per wall-clock
// second) rather than the model. It is the only reason two report JSONs of
// the same work differ, so digests drop it and nothing else.
const hostTimingKey = "SimCyclesPerSec"

// canonicalJSON re-encodes a report's JSON with every hostTimingKey
// removed. Numbers keep their exact text and object keys come out sorted,
// so equal reports give equal bytes whatever produced them.
func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("canonicalize report: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("canonicalize report: trailing data after JSON value")
	}
	clearHostTiming(v)
	return json.Marshal(v)
}

func clearHostTiming(v any) {
	switch x := v.(type) {
	case map[string]any:
		delete(x, hostTimingKey)
		for _, child := range x {
			clearHostTiming(child)
		}
	case []any:
		for _, child := range x {
			clearHostTiming(child)
		}
	}
}

// digestJSON is the hex SHA-256 of a report's canonical JSON.
func digestJSON(raw []byte) (string, error) {
	c, err := canonicalJSON(raw)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// digestReport marshals a report and digests it.
func digestReport(rep any) (string, error) {
	raw, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("marshal report: %w", err)
	}
	return digestJSON(raw)
}
