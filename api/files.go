package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReadRequest decodes a Request from JSON, rejecting unknown fields (a typo
// in an optional knob should fail loudly, not silently select a default)
// and trailing garbage.
func ReadRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	req := &Request{}
	if err := dec.Decode(req); err != nil {
		// The cause is preserved: transport layers classify wrapped reader
		// failures (e.g. http.MaxBytesError → a structured 413) with
		// errors.As through the returned *Error.
		return nil, WrapError(CodeBadRequest, err, "decode request: %v", err)
	}
	if dec.More() {
		return nil, Errorf(CodeBadRequest, "trailing data after request body")
	}
	return req, nil
}

// UnmarshalRequest is ReadRequest over a byte slice.
func UnmarshalRequest(b []byte) (*Request, error) {
	return ReadRequest(bytes.NewReader(b))
}

// EdgeListSource slurps an edge list into an inline network source. The
// text is carried verbatim: it is both the parse input and the content
// identity (Fingerprint).
func EdgeListSource(r io.Reader) (NetworkSource, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return NetworkSource{}, fmt.Errorf("read edge list: %w", err)
	}
	return NetworkSource{EdgeList: string(b)}, nil
}

// EdgeListFile slurps an edge-list file into an inline network source; an
// empty path reads stdin. This is the shared front end of the file-driven
// CLIs (`parsample pipeline` and `parsample stats`).
func EdgeListFile(path string) (NetworkSource, error) {
	if path == "" {
		return EdgeListSource(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return NetworkSource{}, err
	}
	defer f.Close()
	src, err := EdgeListSource(f)
	if err != nil {
		return NetworkSource{}, fmt.Errorf("%s: %w", path, err)
	}
	return src, nil
}

// InlineOntologyFiles slurps a DAG file (internal/ontology.WriteDAG format)
// and an annotations file ("gene<TAB>term" lines) into an inline ScoreSpec.
func InlineOntologyFiles(dagPath, annPath string) (ScoreSpec, error) {
	dag, err := os.ReadFile(dagPath)
	if err != nil {
		return ScoreSpec{}, err
	}
	ann, err := os.ReadFile(annPath)
	if err != nil {
		return ScoreSpec{}, err
	}
	return ScoreSpec{DAG: string(dag), Annotations: string(ann)}, nil
}
