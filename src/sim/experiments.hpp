/**
 * @file
 * Named experiment matrices: the paper's figures, the Section 3.2 RCA
 * statistics and the ablations, written as data. A matrix is a list of
 * arms (a label plus a plain SweepSpec), the columns computed from each
 * benchmark's RunResults, the summary rows and the paper's reference
 * line. runMatrices() runs any set of them on one thread pool and
 * printMatrixReport() prints each the same way (`cgct_sweep --matrix`,
 * docs/SWEEP.md).
 */

#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

namespace cgct {

/** One configuration of a matrix: one region size, every benchmark. */
struct MatrixArm {
    std::string label;
    SweepSpec spec;
};

/** One benchmark's results: runs[a] holds arm a's runs, one per seed. */
struct MatrixRow {
    const WorkloadProfile *profile = nullptr;
    std::vector<std::vector<RunResult>> runs;

    const RunResult &first(std::size_t arm) const { return runs[arm][0]; }
};

/** A report column: one value per benchmark row, nullopt = undefined. */
struct MatrixColumn {
    std::string header;
    std::string format; ///< printf format of one value, e.g. "%.1f%%".
    std::function<std::optional<double>(const MatrixRow &)> value;
    bool summarized = true; ///< false leaves the summary rows blank.
    /** When >= 0, summary rows show the ratio of these two columns'
     *  summaries instead (Figure 7's capture of the averages). */
    int ratioNum = -1;
    int ratioDen = -1;
};

/** Summary rows under a report, over each column's defined cells. */
enum class MatrixSummary { Mean, CommercialMean, Max };

struct Matrix {
    std::string name; ///< The `--matrix` name.
    std::string title;
    std::vector<MatrixArm> arms;
    std::vector<MatrixColumn> columns;
    std::vector<MatrixSummary> summaries;
    std::string paper; ///< The paper's reference line.
};

/** Every registered matrix name, in report order. */
const std::vector<std::string> &matrixNames();

/**
 * Build matrix @p name; an unknown name is fatal. @p base supplies the
 * benchmarks, ops, warmup, base seed and seed count. Only the matrices
 * that report a CI (fig8, fig9) run base.seedsPerCell seeds; the others
 * run the seed chain's first link.
 */
Matrix makeMatrix(const std::string &name, const SweepSpec &base);

/**
 * Run every arm of @p matrices on one pool of @p jobs workers (0 =
 * hardware concurrency) and return each matrix's rows, one per
 * benchmark. A cell several arms share (same configuration, benchmark,
 * ops and seed) runs once. Results do not depend on @p jobs;
 * @p on_progress is called from the workers.
 */
std::vector<std::vector<MatrixRow>> runMatrices(
    const std::vector<Matrix> &matrices, unsigned jobs,
    const std::function<void(std::size_t done, std::size_t total)>
        &on_progress = {});

/** Print a matrix: title, run parameters, a row per benchmark, the
 *  summary rows and the paper's reference line. */
void printMatrixReport(std::ostream &os, const Matrix &matrix,
                       const std::vector<MatrixRow> &rows);

} // namespace cgct
