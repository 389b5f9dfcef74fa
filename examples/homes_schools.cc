// The paper's running example (Figs. 3 & 4): homes with local schools.
//
// Demonstrates:
//   * the Fig. 3 XMAS query, verbatim;
//   * the generated algebra plan (compare with Fig. 4);
//   * the browsability report (Section 2) with and without σ;
//   * navigation-driven evaluation: source navigations consumed by a user
//     who browses only the first med_home vs. full materialization.
#include <cstdio>

#include "client/client.h"
#include "mediator/browsability.h"
#include "mediator/instantiate.h"
#include "mediator/passes/pass.h"
#include "mediator/translate.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

int main() {
  using namespace mix;

  const char* kQuery = R"(
CONSTRUCT <answer>
  <med_home> $H          % ... med_home elements followed by
    $S {$S}              % ... school elements (one for each $S)
  </med_home> {$H}       % (one med_home element for each $H)
</answer> {}             % create one answer element (= for each {})
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

  auto query = xmas::ParseQuery(kQuery).ValueOrDie();
  std::printf("--- XMAS query (Fig. 3) ---\n%s\n\n", query.ToString().c_str());

  auto plan = mediator::TranslateQuery(query).ValueOrDie();
  std::printf("--- initial plan E_q (Fig. 4) ---\n%s\n", plan->ToString().c_str());

  // Browsability (Section 2).
  for (bool sigma : {false, true}) {
    mediator::BrowsabilityOptions options;
    options.sigma_available = sigma;
    auto report = mediator::Classify(*plan, options);
    std::printf("browsability (sigma %s): %s\n", sigma ? "on" : "off",
                mediator::BrowsabilityName(report.cls));
  }
  std::printf("\n");

  // Rewriting phase: both sources answer σ.
  mediator::passes::OptimizerOptions optimizer;
  optimizer.sources["homesSrc"].sigma = true;
  optimizer.sources["schoolsSrc"].sigma = true;
  auto rewritten = plan->Clone();
  auto report = mediator::passes::OptimizePlan(&rewritten, optimizer);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("--- rewriting: %s ---\n%s\n", report.value().ToString().c_str(),
              rewritten->ToString().c_str());

  // Evaluate over synthetic sources: 200 homes / 200 schools, 40 zips.
  auto homes = xml::MakeHomesDoc(200, 40);
  auto schools = xml::MakeSchoolsDoc(200, 40);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  NavStats homes_stats, schools_stats;
  CountingNavigable homes_counted(&homes_nav, &homes_stats);
  CountingNavigable schools_counted(&schools_nav, &schools_stats);

  mediator::SourceRegistry sources;
  sources.Register("homesSrc", &homes_counted);
  sources.Register("schoolsSrc", &schools_counted);
  auto med = mediator::LazyMediator::Build(*rewritten, sources).ValueOrDie();

  // Browse just the first result.
  client::VirtualXmlDocument vdoc(med->document());
  client::XmlElement first = vdoc.Root().FirstChild();
  if (!first.IsNull()) {
    std::printf("first med_home addr: %s\n",
                first.Child("home").Child("addr").Text().c_str());
  }
  std::printf("source navigations after browsing ONE result:\n");
  std::printf("  homes:   %s\n", homes_stats.ToString().c_str());
  std::printf("  schools: %s\n", schools_stats.ToString().c_str());

  // Now materialize everything (what a non-navigation-driven mediator does).
  auto full = xml::Materialize(med->document());
  std::printf("source navigations after FULL materialization:\n");
  std::printf("  homes:   %s\n", homes_stats.ToString().c_str());
  std::printf("  schools: %s\n", schools_stats.ToString().c_str());
  std::printf("answer med_home count: %zu\n", full->root()->children.size());
  return 0;
}
