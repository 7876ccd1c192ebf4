#include "src/obs/profile.h"

#include <cstdio>
#include <sstream>

#include "src/common/table_printer.h"
#include "src/common/units.h"

namespace mrtheta {

namespace {

std::string FormatDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string JoinInputs(const std::vector<int>& inputs) {
  if (inputs.empty()) return "-";
  std::string s;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) s += ",";
    s += "j" + std::to_string(inputs[i]);
  }
  return s;
}

}  // namespace

QueryProfile BuildQueryProfile(const ExecutionResult& result) {
  QueryProfile profile;
  profile.measured_seconds = result.measured_seconds;
  profile.simulated_seconds = ToSeconds(result.makespan);
  profile.sim_shuffle_bytes = result.sim_shuffle_bytes;
  const std::shared_ptr<Relation>& rows =
      result.projected ? result.projected : result.result_ids;
  profile.result_rows_physical = rows ? rows->num_rows() : 0;
  profile.result_selectivity = result.result_selectivity;
  profile.spill_bytes = result.spill_bytes;
  profile.spill_files = result.spill_files;
  profile.peak_mem_bytes = result.peak_mem_bytes;

  profile.jobs.reserve(result.jobs.size());
  for (size_t i = 0; i < result.jobs.size(); ++i) {
    const JobExecution& job = result.jobs[i];
    JobExecutionProfile jp;
    jp.index = static_cast<int>(i);
    jp.name = job.name;
    jp.kind = PlanJobKindName(job.kind);
    jp.kernel = job.kernel;
    jp.reduce_tasks = job.reduce_tasks;
    jp.input_jobs = job.input_jobs;
    jp.wall_seconds = job.wall_seconds;
    jp.sim_release_seconds = ToSeconds(job.timing.release);
    jp.sim_finish_seconds = ToSeconds(job.timing.finish);
    jp.input_bytes = job.metrics.input_bytes_logical;
    jp.shuffle_bytes = job.metrics.map_output_bytes_logical;
    jp.max_reduce_input_bytes = job.metrics.MaxReduceInputBytes();
    jp.map_records_physical = job.metrics.map_output_records_physical;
    jp.output_rows_physical = job.metrics.output_rows_physical;
    jp.output_rows_logical = job.metrics.output_rows_logical;
    jp.output_bytes = job.metrics.output_bytes_logical;
    jp.injected_faults = job.faults.injected_faults;
    jp.task_retries = job.faults.task_retries;
    jp.speculative_launches = job.faults.speculative_launches;
    jp.wasted_task_seconds = job.faults.wasted_task_seconds;
    jp.spill_bytes = job.spill_bytes;
    jp.spill_files = job.spill_files;
    jp.skew_residual_tasks = job.skew_residual_tasks;
    jp.skew_heavy_tasks = job.skew_heavy_tasks;
    jp.skew_heavy_groups = job.skew_heavy_groups;
    profile.jobs.push_back(std::move(jp));
  }
  return profile;
}

std::string QueryProfile::ToTable() const {
  TablePrinter table({"job", "name", "kind", "inputs", "kernel", "reducers",
                      "wall_s", "sim_s", "in_bytes", "shuffle_bytes",
                      "out_rows", "retries", "spec", "spill", "skew"});
  for (const JobExecutionProfile& jp : jobs) {
    const double sim_s = jp.sim_finish_seconds - jp.sim_release_seconds;
    std::string skew = jp.skew_heavy_tasks > 0
                           ? std::to_string(jp.skew_heavy_groups) + "g/" +
                                 std::to_string(jp.skew_heavy_tasks) + "t"
                           : "-";
    table.AddRow({"j" + std::to_string(jp.index), jp.name, jp.kind,
                  JoinInputs(jp.input_jobs), jp.kernel,
                  TablePrinter::Int(jp.reduce_tasks),
                  TablePrinter::Num(jp.wall_seconds, 4),
                  TablePrinter::Num(sim_s, 3), TablePrinter::Int(jp.input_bytes),
                  TablePrinter::Int(jp.shuffle_bytes),
                  TablePrinter::Int(jp.output_rows_physical),
                  TablePrinter::Int(jp.task_retries),
                  TablePrinter::Int(jp.speculative_launches),
                  jp.spill_bytes > 0 ? TablePrinter::Int(jp.spill_bytes) : "-",
                  skew});
  }
  std::ostringstream os;
  table.Print(os);
  os << "total: wall " << TablePrinter::Num(measured_seconds, 4)
     << " s, simulated " << TablePrinter::Num(simulated_seconds, 3)
     << " s, shuffle " << sim_shuffle_bytes << " bytes, result rows "
     << result_rows_physical << " (selectivity "
     << FormatDouble(result_selectivity) << ", plan "
     << (plan_cache_hit ? "cached" : "fresh") << ")\n";
  if (spill_bytes > 0 || peak_mem_bytes > 0) {
    os << "memory: spilled " << spill_bytes << " bytes in " << spill_files
       << " files, peak " << peak_mem_bytes << " bytes\n";
  }
  return os.str();
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\n  \"jobs\": [";
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobExecutionProfile& jp = jobs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"index\": " + std::to_string(jp.index) + ", \"name\": \"";
    AppendJsonEscaped(out, jp.name);
    out += "\", \"kind\": \"";
    AppendJsonEscaped(out, jp.kind);
    out += "\", \"kernel\": \"";
    AppendJsonEscaped(out, jp.kernel);
    out += "\", \"input_jobs\": [";
    for (size_t k = 0; k < jp.input_jobs.size(); ++k) {
      if (k > 0) out += ", ";
      out += std::to_string(jp.input_jobs[k]);
    }
    out += "], \"reduce_tasks\": " + std::to_string(jp.reduce_tasks) +
           ", \"wall_seconds\": " + FormatDouble(jp.wall_seconds) +
           ", \"sim_release_seconds\": " +
           FormatDouble(jp.sim_release_seconds) +
           ", \"sim_finish_seconds\": " + FormatDouble(jp.sim_finish_seconds) +
           ", \"input_bytes\": " + std::to_string(jp.input_bytes) +
           ", \"shuffle_bytes\": " + std::to_string(jp.shuffle_bytes) +
           ", \"max_reduce_input_bytes\": " +
           std::to_string(jp.max_reduce_input_bytes) +
           ", \"map_records_physical\": " +
           std::to_string(jp.map_records_physical) +
           ", \"output_rows_physical\": " +
           std::to_string(jp.output_rows_physical) +
           ", \"output_rows_logical\": " + FormatDouble(jp.output_rows_logical) +
           ", \"output_bytes\": " + std::to_string(jp.output_bytes) +
           ", \"injected_faults\": " + std::to_string(jp.injected_faults) +
           ", \"task_retries\": " + std::to_string(jp.task_retries) +
           ", \"speculative_launches\": " +
           std::to_string(jp.speculative_launches) +
           ", \"wasted_task_seconds\": " +
           FormatDouble(jp.wasted_task_seconds) +
           ", \"spill_bytes\": " + std::to_string(jp.spill_bytes) +
           ", \"spill_files\": " + std::to_string(jp.spill_files) +
           ", \"skew_residual_tasks\": " +
           std::to_string(jp.skew_residual_tasks) +
           ", \"skew_heavy_tasks\": " + std::to_string(jp.skew_heavy_tasks) +
           ", \"skew_heavy_groups\": " + std::to_string(jp.skew_heavy_groups) +
           "}";
  }
  out += "\n  ],\n";
  out += "  \"measured_seconds\": " + FormatDouble(measured_seconds) + ",\n";
  out += "  \"simulated_seconds\": " + FormatDouble(simulated_seconds) + ",\n";
  out += "  \"sim_shuffle_bytes\": " + std::to_string(sim_shuffle_bytes) + ",\n";
  out += "  \"result_rows_physical\": " + std::to_string(result_rows_physical) +
         ",\n";
  out += "  \"result_selectivity\": " + FormatDouble(result_selectivity) +
         ",\n";
  out += "  \"spill_bytes\": " + std::to_string(spill_bytes) + ",\n";
  out += "  \"spill_files\": " + std::to_string(spill_files) + ",\n";
  out += "  \"peak_mem_bytes\": " + std::to_string(peak_mem_bytes) + ",\n";
  out += std::string("  \"plan_cache_hit\": ") +
         (plan_cache_hit ? "true" : "false") + "\n";
  out += "}\n";
  return out;
}

}  // namespace mrtheta
