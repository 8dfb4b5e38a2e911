package main

import (
	"fmt"
	"math/rand"
	"strings"

	"xqview/internal/bench"
	"xqview/internal/xmark"
)

// The three workloads. Each stresses a different part of the engine, and
// for each one another workload bypasses what it stresses (see README.md):
//
//   - point-update: keyed text replaces on a large site document. The
//     update statement's where-clause scan (update targeting) dominates the
//     round; propagate and apply do little. A reader serves snapshot reads
//     and point queries beside the rounds.
//   - join-views: grouping+join views and a family of views sharing one
//     join prefix over bib/prices. Targeting is trivial; propagate, the
//     shared-prefix phase, deep-union apply, the state cache and the
//     disjoint-view skip dominate. A light reader touches only a small
//     unrelated document, so read-path changes barely move the rounds.
//   - http-read: the xqview binary serving one large view over HTTP, with no
//     writes: serialization and the HTTP write dominate, and no write-path
//     change can move it.
const (
	wPointUpdate = "point-update"
	wJoinViews   = "join-views"
	wHTTPRead    = "http-read"
)

var workloadNames = []string{wPointUpdate, wJoinViews, wHTTPRead}

// Sizes and rates of the workloads. They are part of the benchmark's
// definition: changing one changes every number it reports.
const (
	sitePersons = 5000 // point-update and http-read site size (~1.8 MB)
	bibBooks    = 2000 // join-views bib/prices size
	smallPerson = 50   // join-views unrelated document
	sharedViews = 16   // join-views views sharing one join prefix

	// Pre-generated input lengths; the loops cycle through them. 8000
	// join-views rounds hold 6000 bib rounds, a whole number of passes over
	// the 2000 books, so a cycle keeps each inserted title equal to the
	// title of the book it replaces.
	roundsLen = 8000
	readsLen  = 4096

	inprocReadRate = 100.0 // in-process reader ops/s (point-update, join-views)
	httpRate       = 20.0  // http-read requests/s
	httpConns      = 2     // http-read client connections
	httpLimitMS    = 2000  // http-read latency limit: slower requests fail
	zipfS          = 1.1   // key skew of keyed statements and point queries
)

// doc is one source document as the program receives it: generated text.
type doc struct {
	name, text string
}

// readOp is one reader operation: a view read when view is set, otherwise
// an ad-hoc point query.
type readOp struct {
	view  string
	query string
}

// inputs is everything a workload feeds the program, generated from the
// seed before any timing starts.
type inputs struct {
	docs   []doc
	views  []string // view queries, in registration order (view-0, view-1, …)
	rounds []string // closed-loop writer statements; nil when there is no writer
	reads  []readOp
	rate   float64 // reader ops/s
}

// Customers is the restructuring view of dissertation Fig 3.6 Query 4,
// reduced to its customers part: one constructed element per person.
const customersView = `<result>
	<customers>{
		for $p in doc("site.xml")/site/people/person
		return <customer><location>{$p/address/city/text()}</location>{$p/name}</customer>
	}</customers>
</result>`

// sharedView is member i of a view family that computes one bib⋈prices
// title join and differs only in the tag wrapping each pair, so the join
// prefix is shared across the family and each tagger stays private.
func sharedView(i int) string {
	return fmt.Sprintf(`<result>{
	for $b in doc("bib.xml")/bib/book,
	    $e in doc("prices.xml")/prices/entry
	where $b/title = $e/b-title
	return <r%d>{$b/title} {$e/price}</r%d>
}</result>`, i, i)
}

// flatView reads only the unrelated document.
const flatView = `<result>{
	for $p in doc("site.xml")/site/people/person
	return <p>{$p/name}</p>
}</result>`

// pointQuery is an ad-hoc XQuery point lookup of one person's name.
func pointQuery(id int) string {
	return fmt.Sprintf(`<r>{ for $p in doc("site.xml")/site/people/person where $p/@id = "person%d" return $p/name }</r>`, id)
}

var (
	firstNames = []string{"Ada", "Brook", "Chen", "Dara", "Emil", "Fumi", "Goran", "Hana"}
	lastNames  = []string{"Alvarez", "Brandt", "Costa", "Dubois", "Eriksen", "Fischer"}
	cityNames  = []string{"Tampa", "Lisbon", "Worcester", "Boston", "Aachen", "Kyoto", "Lagos", "Quito"}
)

// keyPicker draws person ids with a Zipf skew over a seeded permutation,
// so the hot keys differ from seed to seed.
type keyPicker struct {
	z    *rand.Zipf
	perm []int
}

func newKeyPicker(rng *rand.Rand, n int) *keyPicker {
	return &keyPicker{z: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (k *keyPicker) next() int { return k.perm[k.z.Uint64()] }

// makeInputs generates a workload's inputs from the seed. The same seed
// always yields the same inputs.
func makeInputs(workload string, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case wPointUpdate:
		in := &inputs{
			docs:  []doc{{"site.xml", siteText(sitePersons, seed)}},
			views: []string{customersView, bench.XMarkQ2},
			rate:  inprocReadRate,
		}
		keys := newKeyPicker(rng, sitePersons)
		for i := 0; i < roundsLen; i++ {
			k := keys.next()
			// Alternate a name replace (the cities view is disjoint from
			// it) with a city replace (both views are touched). Values come
			// from fixed vocabularies, so the document size stays fixed.
			if i%2 == 0 {
				name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
				in.rounds = append(in.rounds, fmt.Sprintf(
					`for $p in document("site.xml")/site/people/person where $p/@id = "person%d" update $p replace $p/name with "%s"`, k, name))
			} else {
				in.rounds = append(in.rounds, fmt.Sprintf(
					`for $p in document("site.xml")/site/people/person where $p/@id = "person%d" update $p replace $p/address/city with "%s"`,
					k, cityNames[rng.Intn(len(cityNames))]))
			}
		}
		// Nine view reads to each query: a query costs ~300 reads, and the
		// tails need samples.
		qkeys := newKeyPicker(rng, sitePersons)
		for i := 0; i < readsLen; i++ {
			if i%10 != 9 {
				in.reads = append(in.reads, readOp{view: "view-1"})
			} else {
				in.reads = append(in.reads, readOp{query: pointQuery(qkeys.next())})
			}
		}
		return in, nil
	case wJoinViews:
		cfg := xmark.DefaultBib(bibBooks)
		cfg.Seed = seed
		in := &inputs{
			docs: []doc{
				{"bib.xml", xmark.Bib(cfg).String()},
				{"prices.xml", xmark.Prices(cfg).String()},
				{"site.xml", siteText(smallPerson, seed)},
			},
			rate: inprocReadRate,
		}
		in.views = append(in.views, bench.BibQ2)
		for i := 0; i < sharedViews; i++ {
			in.views = append(in.views, sharedView(i))
		}
		in.views = append(in.views, flatView)
		flat := fmt.Sprintf("view-%d", len(in.views)-1)
		bibRound := 0
		for i := 0; i < roundsLen; i++ {
			if i%4 == 3 {
				// Touches only the unrelated document: every bib view is
				// disjoint from the round and skipped.
				name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
				in.rounds = append(in.rounds, fmt.Sprintf(
					`for $p in document("site.xml")/site/people/person where $p/@id = "person%d" update $p replace $p/name with "%s"`,
					rng.Intn(smallPerson), name))
				continue
			}
			// Delete the first book and append it again with a new year:
			// the bib keeps its size and every title keeps its price entry.
			in.rounds = append(in.rounds, fmt.Sprintf(
				`for $b in document("bib.xml")/bib update $b insert <book year="%d"><title>Title-%d</title><author><last>%s</last><first>%s</first></author></book> into $b
for $b in document("bib.xml")/bib/book[1] update $b delete $b`,
				1990+rng.Intn(cfg.Years), bibRound%bibBooks,
				lastNames[rng.Intn(len(lastNames))], firstNames[rng.Intn(len(firstNames))]))
			bibRound++
		}
		for i := 0; i < readsLen; i++ {
			if i%10 != 9 {
				in.reads = append(in.reads, readOp{view: flat})
			} else {
				in.reads = append(in.reads, readOp{query: pointQuery(rng.Intn(smallPerson))})
			}
		}
		return in, nil
	case wHTTPRead:
		in := &inputs{
			docs:  []doc{{"site.xml", siteText(sitePersons, seed)}},
			views: []string{customersView},
			rate:  httpRate,
		}
		keys := newKeyPicker(rng, sitePersons)
		for i := 0; i < readsLen; i++ {
			if rng.Intn(5) == 0 {
				in.reads = append(in.reads, readOp{query: pointQuery(keys.next())})
			} else {
				in.reads = append(in.reads, readOp{view: "view-0"})
			}
		}
		return in, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

func siteText(persons int, seed int64) string {
	cfg := xmark.DefaultSite(persons)
	cfg.Seed = seed
	return xmark.Site(cfg).String()
}
