/**
 * @file
 * Golden-trace fixture maintenance tool.
 *
 * Default mode is a dry run: simulate every golden case (the
 * production run loop, MNPU_CHECK-independent) and report, per fixture, whether
 * tests/golden/<name>.json matches the current behavior — without
 * writing anything. Pass --update-golden to rewrite the fixtures that
 * differ (or don't exist yet); the resulting JSON diff is reviewed and
 * committed like any other source change.
 *
 * With --envelope the tool instead maintains the fast-fidelity error
 * envelope (tests/golden/fidelity_envelope.json): every golden case is
 * run in both fidelities and the measured
 * relative cycle deviation plus its committed bound are written as one
 * JSON line per case. Same dry-run/--update-golden semantics.
 *
 * Usage: update_golden [--update-golden] [--envelope] [--dir PATH]
 *                      [--case NAME]
 *   --dir PATH   fixture directory (default: tests/golden next to the
 *                source tree, baked in at configure time)
 *   --case NAME  restrict to one golden case (fixture mode only)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/golden.hh"
#include "common/logging.hh"

#ifndef MNPU_GOLDEN_DIR
#define MNPU_GOLDEN_DIR "tests/golden"
#endif

namespace
{

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::string{};
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mnpu;

    bool update = false;
    bool envelope = false;
    std::string dir = MNPU_GOLDEN_DIR;
    std::string only;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--update-golden") {
            update = true;
        } else if (arg == "--envelope") {
            envelope = true;
        } else if (arg == "--dir" && i + 1 < argc) {
            dir = argv[++i];
        } else if (arg == "--case" && i + 1 < argc) {
            only = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--update-golden] [--envelope] "
                         "[--dir PATH] [--case NAME]\n",
                         argv[0]);
            return 2;
        }
    }

    if (envelope) {
        // One file covering every case: regenerate the whole text and
        // compare/rewrite it as a unit, so a partial update can't leave
        // rows measured against different source revisions.
        std::string fresh;
        for (const GoldenCase &golden : goldenCases()) {
            FidelityEnvelopeEntry entry;
            try {
                entry = measureFidelityEnvelope(golden);
            } catch (const std::exception &error) {
                std::fprintf(stderr, "%-32s ERROR: %s\n",
                             golden.name.c_str(), error.what());
                return 1;
            }
            std::printf("%-32s deviation %.6f bound %.6f\n",
                        golden.name.c_str(), entry.deviation,
                        entry.bound);
            fresh += fidelityEnvelopeLine(entry);
        }
        std::string path = fidelityEnvelopePath(dir);
        std::string committed = readFileOrEmpty(path);
        if (committed == fresh) {
            std::printf("%-32s up to date\n", "fidelity_envelope");
            return 0;
        }
        const char *why = committed.empty() ? "missing" : "differs";
        if (!update) {
            std::printf("%-32s STALE (%s)\n", "fidelity_envelope", why);
            std::fprintf(stderr,
                         "envelope stale; rerun with --update-golden "
                         "to rewrite\n");
            return 1;
        }
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        out << fresh;
        std::printf("%-32s rewritten (%s)\n", "fidelity_envelope", why);
        return 0;
    }

    int stale = 0;
    int checked = 0;
    // Batch and serving cases share one dry-run/update cycle; the
    // regenerated text for each comes from its own runner.
    auto refresh = [&](const std::string &name,
                       const std::string &fresh) -> int {
        std::string path = goldenFixturePath(dir, name);
        std::string committed = readFileOrEmpty(path);
        if (committed == fresh) {
            std::printf("%-32s up to date\n", name.c_str());
            return 0;
        }
        ++stale;
        const char *why = committed.empty() ? "missing" : "differs";
        if (!update) {
            std::printf("%-32s STALE (%s)\n", name.c_str(), why);
            return 0;
        }
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        out << fresh;
        std::printf("%-32s rewritten (%s)\n", name.c_str(), why);
        return 0;
    };
    for (const GoldenCase &golden : goldenCases()) {
        if (!only.empty() && golden.name != only)
            continue;
        ++checked;
        std::string fresh;
        try {
            fresh = goldenFixtureText(runGoldenCase(golden));
        } catch (const std::exception &error) {
            std::fprintf(stderr, "%-32s ERROR: %s\n", golden.name.c_str(),
                         error.what());
            return 1;
        }
        if (refresh(golden.name, fresh) != 0)
            return 1;
    }
    for (const ServingGoldenCase &golden : servingGoldenCases()) {
        if (!only.empty() && golden.name != only)
            continue;
        ++checked;
        std::string fresh;
        try {
            fresh = goldenFixtureText(runServingGoldenCase(golden));
        } catch (const std::exception &error) {
            std::fprintf(stderr, "%-32s ERROR: %s\n", golden.name.c_str(),
                         error.what());
            return 1;
        }
        if (refresh(golden.name, fresh) != 0)
            return 1;
    }

    if (checked == 0) {
        std::fprintf(stderr, "no golden case matches \"%s\"\n",
                     only.c_str());
        return 2;
    }
    if (stale && !update) {
        std::fprintf(stderr,
                     "%d fixture(s) stale; rerun with --update-golden "
                     "to rewrite\n",
                     stale);
        return 1;
    }
    return 0;
}
