// The main of every bench: prints the tables of the kBenches entry
// named SPAM_BENCH (its target's name) in production, through regenerate().
#include <cstdio>
#include <cstring>

#include "tables.hpp"

int main(int argc, char** argv) {
  using namespace spam::bench;
  const int jobs = harness_init(argc, argv);
  for (const BenchTables& b : kBenches) {
    if (std::strcmp(b.name, SPAM_BENCH) != 0) continue;
    const Regeneration r = regenerate([&] { return b.tables(kProduction); },
                                      jobs);
    if (r.print_misses == 0) {
      std::fwrite(r.text.data(), 1, r.text.size(), stdout);
      return 0;
    }
    std::fprintf(stderr,
                 "print pass missed the cache %llu time(s): the table code "
                 "read points its record pass did not\n",
                 static_cast<unsigned long long>(r.print_misses));
    return 1;
  }
  std::fprintf(stderr, "no table function named %s\n", SPAM_BENCH);
  return 1;
}
