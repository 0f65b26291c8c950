// Command acctl is the administrator's tool for working with policy files:
// validating them, evaluating ad-hoc requests against them, converting
// between the XML and JSON encodings, and running the static analysis of
// Section 3.1 — the lint pass (conflicts, shadowing, redundancy, dead
// attributes, combining dead zones).
//
// Usage:
//
//	acctl validate <policy.xml|policy.json>...
//	acctl evaluate <policy-file> subject=<id> resource=<id> action=<id> [cat/attr=value ...]
//	acctl convert  <policy-file>            # XML<->JSON to stdout
//	acctl lint [-json] [-root-combining=<alg>] <policy-file>...
//	acctl conflicts ...                     # alias of lint
//	acctl translate <policy.acl>            # local dialect -> standard XML
//	acctl fmt <policy.acl>                  # canonical dialect formatting
//
// lint is CI-friendly: exit 0 with a clean base, 1 when findings exist, 2
// when a policy file cannot be loaded or a flag is bad.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dialect"
	"repro/internal/policy"
	"repro/internal/xacml"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "validate":
		err = validate(args[1:], stdout)
	case "evaluate":
		err = evaluate(args[1:], stdout)
	case "convert":
		err = convert(args[1:], stdout)
	case "lint", "conflicts":
		return lint(args[1:], stdout, stderr)
	case "translate":
		err = translate(args[1:], stdout)
	case "fmt":
		err = fmtDialect(args[1:], stdout)
	default:
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "acctl:", err)
		return 1
	}
	return 0
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, `usage:
  acctl validate <policy-file>...
  acctl evaluate <policy-file> subject=<id> resource=<id> action=<id> [category/attr=value ...]
  acctl convert <policy-file>
  acctl lint [-json] [-root-combining=<alg>] <policy-file>...
  acctl conflicts ...  (alias of lint)
  acctl translate <policy.acl>
  acctl fmt <policy.acl>`)
}

func loadPolicy(path string) (policy.Evaluable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".json"):
		return xacml.UnmarshalJSON(data)
	case strings.HasSuffix(path, ".acl"):
		return dialect.Translate(strings.TrimSuffix(path, ".acl"), policy.DenyOverrides, string(data))
	default:
		return xacml.UnmarshalXML(data)
	}
}

// fmtDialect reprints a dialect file in canonical form.
func fmtDialect(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("fmt needs exactly one dialect file")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	doc, err := dialect.Parse(string(data))
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, dialect.Format(doc))
	return nil
}

// translate converts a local-dialect policy file to the standard XML
// encoding, the convergence path of Section 3.1's heterogeneity discussion.
func translate(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("translate needs exactly one dialect file")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	doc, err := dialect.Parse(string(data))
	if err != nil {
		return err
	}
	pols, err := dialect.Compile(doc)
	if err != nil {
		return err
	}
	for _, p := range pols {
		out, err := xacml.MarshalXML(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
	}
	return nil
}

func validate(paths []string, stdout io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("no policy files given")
	}
	for _, path := range paths {
		e, err := loadPolicy(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := e.Validate(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(stdout, "%s: ok (%s)\n", path, e.EntityID())
	}
	return nil
}

func evaluate(args []string, stdout io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("evaluate needs a policy file and attribute bindings")
	}
	e, err := loadPolicy(args[0])
	if err != nil {
		return err
	}
	req := policy.NewRequest()
	for _, binding := range args[1:] {
		key, value, ok := strings.Cut(binding, "=")
		if !ok {
			return fmt.Errorf("binding %q is not key=value", binding)
		}
		switch key {
		case "subject":
			req.Add(policy.CategorySubject, policy.AttrSubjectID, policy.String(value))
		case "resource":
			req.Add(policy.CategoryResource, policy.AttrResourceID, policy.String(value))
		case "action":
			req.Add(policy.CategoryAction, policy.AttrActionID, policy.String(value))
		default:
			catName, attr, ok := strings.Cut(key, "/")
			if !ok {
				return fmt.Errorf("binding %q: want subject|resource|action or category/attribute", key)
			}
			cat, err := policy.CategoryFromString(catName)
			if err != nil {
				return err
			}
			req.Add(cat, attr, policy.String(value))
		}
	}
	res := e.Evaluate(policy.NewContext(req))
	fmt.Fprintf(stdout, "decision: %s\n", res.Decision)
	if res.By != "" {
		fmt.Fprintf(stdout, "by:       %s\n", res.By)
	}
	for _, ob := range res.Obligations {
		fmt.Fprintf(stdout, "obligation: %s %v\n", ob.ID, ob.Attributes)
	}
	if res.Err != nil {
		fmt.Fprintf(stdout, "status:   %v\n", res.Err)
	}
	return nil
}

func convert(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("convert needs exactly one policy file")
	}
	e, err := loadPolicy(args[0])
	if err != nil {
		return err
	}
	var out []byte
	if strings.HasSuffix(args[0], ".json") {
		out, err = xacml.MarshalXML(e)
	} else {
		out, err = xacml.MarshalJSON(e)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// loadAll loads and structurally validates every policy file.
func loadAll(paths []string) ([]policy.Evaluable, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no policy files given")
	}
	evs := make([]policy.Evaluable, 0, len(paths))
	for _, path := range paths {
		e, err := loadPolicy(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		evs = append(evs, e)
	}
	return evs, nil
}

// lint runs the full static analysis over the given policy files as one
// base: each file is a root child, combined under -root-combining.
// Exit codes: 0 clean, 1 findings, 2 load or flag error.
func lint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	rootAlg := fs.String("root-combining", policy.DenyOverrides.String(),
		"policy-combining algorithm of the assembled root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	combining, err := policy.AlgorithmFromString(*rootAlg)
	if err != nil {
		fmt.Fprintln(stderr, "acctl:", err)
		return 2
	}
	evs, err := loadAll(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "acctl:", err)
		return 2
	}
	rep := analysis.Analyze(analysis.Config{RootCombining: combining}, evs...)
	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "acctl:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		fmt.Fprint(stdout, rep.Text())
	}
	if rep.Clean() {
		return 0
	}
	return 1
}
